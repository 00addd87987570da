(** The reference encrypted backend: evaluate a TFHE program wave by wave
    on real LWE ciphertexts with the cloud keyset, on the calling thread.

    This is the single-core executor every other backend's numbers are
    normalised to; the test suite runs whole compiled circuits through it
    and checks the decrypted outputs against {!Plain_eval}. *)

type stats = {
  bootstraps_executed : int;  (** Jobs executed: a LUT rotation group is one. *)
  nots_executed : int;
  wall_time : float;  (** Seconds of real local compute. *)
  wave_wall : float array;  (** Wall seconds per wave. *)
  wave_width : int array;  (** Jobs per wave. *)
  batch_size : int;  (** The engine's launch capacity ([opts.batch]). *)
  batch_launches : int;  (** Kernel launches. *)
  bsk_bytes_streamed : int;
      (** Bytes of bootstrapping key streamed from memory ([Bootstrap] row
          counter × {!Exec_obs.bsk_row_bytes}). *)
  ks_bytes_streamed : int;  (** Bytes of key-switch table streamed. *)
}

val run :
  ?opts:Exec_opts.t ->
  Pytfhe_tfhe.Gates.cloud_keyset ->
  Pytfhe_circuit.Netlist.t ->
  Pytfhe_tfhe.Lwe.sample array ->
  Pytfhe_tfhe.Lwe.sample array * stats
(** [run cloud net inputs] homomorphically evaluates the levelized waves
    of [net] through {!Wave.exec} in launches of at most [opts.batch] jobs
    (default {!Exec_opts.default}).  [inputs] follow the netlist's input
    declaration order; outputs follow the output declaration order.
    Outputs are ciphertext-bit-exact for every batch size.  With an
    enabled [opts.obs] sink each wave gets a span, the standard counters
    and the engine's launch/key-traffic counters on a ["cpu"] track.
    Raises [Invalid_argument] on an input arity mismatch or [batch < 1]. *)

val stats_of :
  start:float -> cap:int -> Pytfhe_tfhe.Params.t -> Wave.engine -> Wave.stats -> stats
(** The stats record of a run on one engine that started at [start]
    (shared with the streaming cpu run). *)

val traffic_probe : Pytfhe_tfhe.Params.t -> Wave.engine -> Pytfhe_obs.Trace.track -> unit
(** A per-wave probe emitting the engine's launch and key-traffic deltas
    ({!Exec_obs.batch_wave_counters}) since its previous call. *)
