(** Real multi-process distributed TFHE execution.

    The paper's distributed CPU backend (§IV-D) runs TFHE gates on a Ray
    cluster; {!Sched_cpu} only prices that design, and {!Par_eval} runs it
    on shared-memory domains.  This executor crosses the process boundary
    for real: it spawns [workers] OS processes, ships the cloud keyset to
    each once at startup, and for every wave sends each worker one
    contiguous shard of the wave's {!Wave.job}s — job headers plus one
    operand {!Pytfhe_tfhe.Lwe_array}, serialized through
    {!Pytfhe_util.Wire} inside a length-prefixed frame over a
    [Unix.socketpair] channel — which the worker runs through
    {!Wave.exec}; the outputs are collected at a wave barrier.

    Outputs are bit-exact with the cpu placement for any worker count: every
    job performs the identical torus operation sequence, and the 32-bit
    ciphertext wire encoding round-trips exactly.

    {b Failure semantics.}  The coordinator never trusts a worker:

    - each request carries a deadline; a slow worker gets [max_retries]
      backoff extensions before it is declared lost;
    - crashed workers are detected early by a [waitpid(WNOHANG)] heartbeat
      and by EOF on their socket, not just by timeout;
    - a reply that fails to parse ({!Pytfhe_util.Wire.Corrupt}, truncated
      frame, wrong arity) is dropped and the shard re-requested — a
      tampered frame can cost a retry, never correctness;
    - a lost worker's shard is reassigned to the least-loaded survivor, so
      execution degrades gracefully down to one worker.  Only the loss of
      every worker raises [Failure].

    Workers are spawned by re-executing the host binary with the
    [PYTFHE_DIST_WORKER] environment variable set (posix_spawn under the
    hood, via [Unix.create_process]), because the OCaml 5 runtime forbids
    [Unix.fork] in any process that has ever created a domain — and
    {!Par_eval} creates domains.  {b Every executable that binds this
    placement must call {!worker_entry} as the first thing in main}; the startup
    handshake fails fast, with a message naming the missing hook, if it
    does not.

    The protocol is documented in [docs/backends.md]. *)

val worker_entry : unit -> unit
(** In a process spawned by {!bind} (recognized by the [PYTFHE_DIST_WORKER]
    environment variable), serves the gate protocol on the stdin socket
    and [_exit]s when the coordinator hangs up — it never returns.  In any
    other process it is a no-op.  Call it first in main of every
    executable that uses {!bind}. *)

(** {2 Fault injection}

    Faults are shipped to workers in the hello frame and executed by the
    worker itself, so the failure is genuine (a real [SIGKILL], a real
    truncated TCP-style frame) rather than simulated in the coordinator.
    Used by the fault-injection tests and the [dist] bench experiment. *)

type fault_action =
  | Crash  (** [SIGKILL] self while holding the request (mid-wave death). *)
  | Stall of float  (** Sleep this many seconds before evaluating. *)
  | Flip_reply
      (** Send a framing-correct reply whose payload magic is bit-flipped —
          exercises the corrupt-frame retry path. *)
  | Truncate_reply
      (** Announce a full frame, send half of it, and exit — exercises the
          EOF-mid-frame path. *)

type fault = {
  victim : int;  (** Worker index the fault applies to. *)
  after_requests : int;  (** Fires while serving this (1-based) request. *)
  action : fault_action;
}

type config = {
  workers : int;
  request_timeout : float;  (** Seconds before a request is suspect. *)
  max_retries : int;  (** Backoff extensions / re-sends per shard. *)
  backoff : float;  (** Deadline multiplier per retry ([>= 1]). *)
  heartbeat_interval : float;  (** Liveness-poll period while waiting. *)
  faults : fault list;  (** Fault-injection schedule (tests only). *)
}

val config :
  ?request_timeout:float ->
  ?max_retries:int ->
  ?backoff:float ->
  ?heartbeat_interval:float ->
  ?faults:fault list ->
  int ->
  config
(** [config workers] with defaults: 60 s timeout, 2 retries, 2x backoff,
    0.25 s heartbeat, no faults.  Raises
    [Invalid_argument] on nonsense ([workers < 1], non-positive timeout,
    [backoff < 1]). *)

type stats = {
  workers_started : int;
  workers_lost : int;  (** Workers that crashed or were declared lost. *)
  bootstraps_executed : int;
  nots_executed : int;
  requests_sent : int;  (** Shard requests, including re-sends. *)
  retries : int;  (** Deadline extensions plus corrupt-frame re-sends. *)
  reassignments : int;  (** Shards moved to a surviving worker. *)
  corrupt_frames : int;  (** Replies rejected by the parser. *)
  heartbeat_misses : int;
      (** Times the [waitpid(WNOHANG)] heartbeat found a worker dead before
          its request deadline expired. *)
  keyset_bytes : int;  (** Serialized cloud keyset size (shipped once per worker). *)
  bytes_to_workers : int;
  bytes_from_workers : int;
  startup_time : float;  (** Fork + keyset shipping seconds. *)
  dispatch_time : float;
      (** Coordinator seconds spent serializing and writing shard requests
          — the measured analogue of {!Sched_cpu}'s [dispatch_time]. *)
  transfer_time : float;
      (** Round-trip seconds not accounted to worker compute: wire
          transfer, frame parsing, barrier waits. *)
  compute_time : float;  (** Sum of worker-reported gate-evaluation seconds. *)
  wave_wall : float array;  (** Wall seconds per executed wave. *)
  wave_width : int array;  (** Jobs per executed wave. *)
  wall_time : float;
}

val bind : Exec_opts.t -> config -> Pytfhe_tfhe.Gates.cloud_keyset -> stats Wave.binding
(** A worker session: spawns [cfg.workers] processes and ships [cloud] to
    each once.  Each wave then goes out as one [DJOB] per live worker, a
    contiguous shard whose jobs the worker launches at most [opts.batch]
    at a time, so the binding's capacity is [live workers × batch].
    Releasing the binding shuts the workers down and reaps them.  Raises
    [Invalid_argument] when [batch < 1] and [Failure] when no worker comes
    up; [run_wave] raises [Failure] once every worker is lost.

    With an enabled [obs] sink, the hello frame carries the sink's epoch
    and each worker collects per-shard spans in a local sink, shipping
    them back in an optional [DTRC] frame sent just before each reply; the
    coordinator merges them onto per-worker tracks.  {!Wave.drive}'s wave
    spans, counters and noise gauges, and this binding's wire-byte /
    retry / reassignment / heartbeat-miss probe go on a ["coordinator"]
    track.  A worker lost mid-wave truncates the trace (its unshipped
    spans die with it) but never corrupts it — a malformed [DTRC] frame is
    counted in [corrupt_frames] and dropped. *)

val pp_stats : Format.formatter -> stats -> unit

(** {2 Wire internals}

    The shard request codec, exposed so the test suite can pin the
    request decoder without spawning processes. *)

val encode_request :
  req_id:int -> cap:int -> n:int -> Wave.job array -> Bytes.t
(** The coordinator's DJOB payload: magic, request id, the workers'
    launch capacity, one header per job (a gate code, or 128 + arity and
    the group's tables), then every job's operands as one
    {!Pytfhe_tfhe.Lwe_array} of dimension [n]. *)

val decode_request : n:int -> string -> int * int * Wave.job array
(** The worker's parse of a DJOB payload: [(req_id, cap, jobs)].  Raises
    [{!Pytfhe_util.Wire}.Corrupt] on a truncated payload, a capacity below
    1, a [Not] or unknown gate code, an arity outside 1–3, a table wider
    than the arity allows, a group without tables (or an arity-1 group
    with several), an operand row count other than the headers declare,
    or an operand dimension other than [n]. *)
