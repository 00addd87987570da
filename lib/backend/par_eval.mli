(** Real multicore TFHE execution on OCaml 5 domains.

    Where {!Sched_cpu} only *prices* the paper's distributed-CPU backend
    through a cost model, this executor actually runs every bootstrapped
    gate on LWE ciphertexts across a pool of domains.  Each wave's cells
    and rows are cut into one contiguous slice per domain, and every
    domain runs its slice through its own {!Wave.engine} into its own
    rows of one result array, so no TGSW workspace, FFT scratch or
    test-vector buffer is shared; inline [Not] gates run on the calling
    domain after each wave's barrier.

    Outputs are bit-exact with the cpu placement — same ciphertexts, same
    declaration-order output array — for any worker count. *)

type stats = {
  workers : int;  (** Domains used (including the calling one). *)
  bootstraps_executed : int;
  nots_executed : int;
  per_domain_bootstraps : int array;  (** Jobs run per domain. *)
  per_domain_busy : float array;
      (** Seconds each domain spent inside gate kernels (excludes barrier
          waits); their sum approximates single-core compute time. *)
  wave_wall : float array;  (** Wall seconds per executed wave. *)
  wave_width : int array;  (** Jobs per executed wave. *)
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

type pool
(** A fork-join pool of domains: the calling domain plus [workers - 1]
    helpers.  One pool serves any number of bindings, one wave at a time. *)

val pool : int -> pool
(** [pool workers] spawns the helper domains.  Raises [Invalid_argument]
    when [workers < 1]; [pool 1] spawns none. *)

val shutdown : pool -> unit
(** Stop and join the helper domains. *)

val bind : Exec_opts.t -> pool -> Pytfhe_tfhe.Gates.cloud_keyset -> stats Wave.binding
(** One {!Wave.engine} of capacity [opts.batch] per domain of [pool]; a
    wave is cut into one contiguous slice per domain, so the binding's
    capacity is [workers × batch].  Outputs are bit-exact with the cpu
    placement for any worker count.  Releasing the binding leaves the pool
    running.

    With an enabled [opts.obs] sink, each domain writes a span per slice
    to its own lock-free ["domain d"] track (drained by the caller at the
    wave barrier, whose mutex handshake orders the buffers); {!Wave.drive}'s
    wave spans, counters and this binding's key-traffic probe go on a
    ["waves"] track. *)

val ideal_speedup : Pytfhe_circuit.Levelize.schedule -> int -> float
(** The wave-synchronous speedup bound of a schedule, for benches that
    sweep worker counts without executing. *)

val pp_stats : Format.formatter -> stats -> unit
