(** The reference placement: waves run on one {!Wave.engine} on the
    calling thread.

    This is the single-core executor every other backend's numbers are
    normalised to; the test suite runs whole compiled circuits through it
    ([Executor.run Cpu]) and checks the decrypted outputs against
    {!Plain_eval}. *)

type stats = {
  bootstraps_executed : int;  (** Jobs executed: a LUT rotation group is one. *)
  nots_executed : int;
  wall_time : float;  (** Seconds of real local compute. *)
  wave_wall : float array;  (** Wall seconds per executed wave. *)
  wave_width : int array;  (** Jobs per executed wave. *)
  batch_size : int;  (** The engine's launch capacity ([opts.batch]). *)
  batch_launches : int;  (** Kernel launches. *)
  bsk_bytes_streamed : int;
      (** Bytes of bootstrapping key streamed from memory ([Bootstrap] row
          counter × {!Exec_obs.bsk_row_bytes}). *)
  ks_bytes_streamed : int;  (** Key-switch table bytes streamed. *)
}

val bind : Exec_opts.t -> Pytfhe_tfhe.Gates.cloud_keyset -> stats Wave.binding
(** One engine of capacity [opts.batch] (the binding's capacity).  Its
    probe emits the engine's launch and key-traffic deltas
    ({!Exec_obs.batch_wave_counters}) on a ["cpu"] track.  Raises
    [Invalid_argument] when [batch < 1]. *)
