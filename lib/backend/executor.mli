(** The unified executor API: one signature every real backend implements,
    one stats record every caller consumes, one options record every
    caller passes.

    {!Tfhe_eval}, {!Par_eval} and {!Dist_eval} each grew their own run
    function and mutually incompatible stats; this module packages them as
    first-class modules of a common signature {!S} so callers — the
    server, the CLI, the bench harness, the service scheduler — select a
    backend as a value and handle results uniformly.  Backend-specific
    numbers stay reachable through {!type-stats.detail}. *)

type opts = Exec_opts.t = {
  obs : Pytfhe_obs.Trace.sink;
      (** Tracing sink; {!Pytfhe_obs.Trace.null} disables all probes. *)
  batch : int;
      (** Launch capacity of every {!Wave.engine} (≥ 1; 1 = one gate per
          launch).  Outputs are bit-exact for every value. *)
}
(** The execution options every executor, the server, the CLI and the
    service take.  Build one by updating {!default_opts}:
    [{ Executor.default_opts with batch = 16 }]. *)

val default_opts : opts
(** [{ obs = Trace.null; batch = 8 }]. *)

type detail =
  | Cpu_stats of Tfhe_eval.stats
  | Multicore_stats of Par_eval.stats
  | Multiprocess_stats of Dist_eval.stats

type stats = {
  backend : string;  (** The implementing module's {!S.name}. *)
  workers : int;  (** Domains or processes used; 1 for the CPU backend. *)
  bootstraps_executed : int;  (** Jobs executed: a LUT rotation group is one. *)
  nots_executed : int;
  wall_time : float;  (** End-to-end wall seconds. *)
  wave_wall : float array;  (** Wall seconds per wave. *)
  wave_width : int array;  (** Jobs per wave. *)
  detail : detail;  (** The backend's full native stats. *)
}

module type S = sig
  val name : string

  val run :
    ?opts:opts ->
    Pytfhe_tfhe.Gates.cloud_keyset ->
    Pytfhe_circuit.Netlist.t ->
    Pytfhe_tfhe.Lwe.sample array ->
    Pytfhe_tfhe.Lwe.sample array * stats

  val run_stream :
    ?opts:opts ->
    ?window:int ->
    Pytfhe_tfhe.Gates.cloud_keyset ->
    (unit -> bytes option) ->
    Pytfhe_tfhe.Lwe.sample array ->
    Pytfhe_tfhe.Lwe.sample array * stats
  (** Execute a streamed binary pulled from a chunked source, without
      materialising a netlist, through {!Stream_exec.run_waves} (segment
      size [window] queued bootstraps; see
      {!Pytfhe_circuit.Binary.read_source} for a file-backed source).
      Outputs are ciphertext-bit-exact with [run] over the parsed
      netlist.  [stats.wave_width]/[wave_wall] cover executed waves in
      order. *)
end
(** Outputs are ciphertext-bit-exact across all implementations and batch
    sizes.  Every implementation runs its waves through {!Wave.exec}; the
    multiprocess backend's workers build their engines with
    [opts.batch]. *)

val cpu : (module S)
(** {!Tfhe_eval} — sequential, the correctness baseline.  Name ["cpu"]. *)

val multicore : ?workers:int -> unit -> (module S)
(** {!Par_eval} on [workers] domains (default
    [Domain.recommended_domain_count ()]).  Name ["par"]. *)

val multiprocess : ?workers:int -> ?config:Dist_eval.config -> unit -> (module S)
(** {!Dist_eval} on [config.workers] processes; [config] wins over
    [workers] (default: [Dist_eval.config 2]).  Name ["dist"].  The usual
    caveat applies: the host executable must call
    {!Dist_eval.worker_entry} first in main. *)

val pp_stats : Format.formatter -> stats -> unit
(** Uniform one-line rendering, followed by the backend's own [pp] where
    it has one. *)
