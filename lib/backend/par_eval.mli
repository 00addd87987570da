(** Real multicore TFHE execution on OCaml 5 domains.

    Where {!Sched_cpu} only *prices* the paper's distributed-CPU backend
    through a cost model, this executor actually runs every bootstrapped
    gate on LWE ciphertexts across a pool of domains.  Each wave's jobs
    are cut into one contiguous slice per domain, and every domain runs
    its slice through its own {!Wave.engine}, so no TGSW workspace, FFT
    scratch or test-vector buffer is shared; inline [Not] gates run on
    the calling domain after each wave's barrier.

    Outputs are bit-exact with {!Tfhe_eval.run} — same ciphertexts, same
    declaration-order output array — for any worker count. *)

type stats = {
  workers : int;  (** Domains used (including the calling one). *)
  bootstraps_executed : int;
  nots_executed : int;
  per_domain_bootstraps : int array;  (** Jobs run per domain. *)
  per_domain_busy : float array;
      (** Seconds each domain spent inside gate kernels (excludes barrier
          waits); their sum approximates single-core compute time. *)
  wave_wall : float array;  (** Wall seconds per wave. *)
  wave_width : int array;  (** Jobs per wave. *)
  wall_time : float;  (** End-to-end wall seconds. *)
  achieved_speedup : float;
      (** Total busy time / wall time — the parallelism actually realised
          on this machine. *)
  ideal_speedup : float;
      (** Wave-synchronous bound for this run and worker count:
          total jobs / Σ ceil(width / workers).  What {!Sched_cpu}
          predicts with zero overheads. *)
  batch_size : int;  (** Every engine's launch capacity ([opts.batch]). *)
  batch_launches : int;  (** Kernel launches summed over domains. *)
  bsk_bytes_streamed : int;
      (** Bootstrapping-key bytes streamed, summed over domains. *)
  ks_bytes_streamed : int;  (** Key-switch table bytes streamed. *)
}

val run :
  ?workers:int ->
  ?opts:Exec_opts.t ->
  Pytfhe_tfhe.Gates.cloud_keyset ->
  Pytfhe_circuit.Netlist.t ->
  Pytfhe_tfhe.Lwe.sample array ->
  Pytfhe_tfhe.Lwe.sample array * stats
(** [run ~workers cloud net inputs] evaluates the program wave by wave on
    [workers] domains (default: [Domain.recommended_domain_count ()]),
    each engine launching at most [opts.batch] jobs (default
    {!Exec_opts.default}).  [workers = 1] degenerates to sequential
    execution on the calling domain, with no domains spawned.  Outputs
    are bit-exact with {!Tfhe_eval.run} for any workers × batch.  Raises
    [Invalid_argument] on input arity mismatch, [workers < 1] or
    [batch < 1].

    With an enabled [opts.obs] sink, each domain writes a span per slice
    to its own lock-free ["domain d"] track (drained by the coordinator at
    the wave barrier, whose mutex handshake orders the buffers), and the
    coordinator emits one span plus the standard and key-traffic counter
    sets per wave on a ["waves"] track. *)

val run_stream :
  ?workers:int ->
  ?opts:Exec_opts.t ->
  ?window:int ->
  Pytfhe_tfhe.Gates.cloud_keyset ->
  (unit -> bytes option) ->
  Pytfhe_tfhe.Lwe.sample array ->
  Pytfhe_tfhe.Lwe.sample array * stats
(** Multicore execution of a streamed binary through
    {!Stream_exec.run_waves}, with the same per-domain slicing as {!run}:
    no netlist is materialised.  Outputs are ciphertext-bit-exact with
    {!run} for any worker count and any [window].  [stats.wave_width] /
    [stats.wave_wall] cover executed waves in order rather than netlist
    levels. *)

val ideal_speedup : Pytfhe_circuit.Levelize.schedule -> int -> float
(** The wave-synchronous speedup bound of a schedule, for benches that
    sweep worker counts without executing. *)

val pp_stats : Format.formatter -> stats -> unit
