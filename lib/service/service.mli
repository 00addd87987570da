(** FHE-as-a-service: a persistent multi-tenant evaluation server.

    One TCP endpoint (the shared [PTFD] framing of {!Pytfhe_backend.Framing})
    holds many tenants' {e cloud} keysets — registered by client id in the
    same keyset wire format the distributed executor ships to its workers;
    secret keys never cross the wire — and executes submitted programs
    (PyTFHE binaries) against them.

    The scheduler is the point of the exercise: each request is its
    submitted bytes plus a {!Pytfhe_backend.Wave.cursor}, and independent
    ready jobs — gates and LUT rotation groups — from {e concurrent
    requests sharing a keyset} are packed into one launch of the
    configured placement, so a stream of narrow circuits (the worst case
    for per-request batching: a serial chain exposes one ready gate at a
    time) still fills the batch kernel.  On serial-chain workloads a batch
    fill above 1.0 is only reachable by cross-request packing — the
    service bench asserts exactly that.

    Failure semantics: a malformed payload draws an [SERR] on its own
    connection and nothing else dies; a program the cursor rejects fails
    only its own request; envelope corruption (bad frame magic or
    implausible length) closes only that connection; evicting a keyset
    fails only that tenant's queued and in-flight requests.  Replies are
    ciphertext-bit-exact with a per-tenant {!Pytfhe_core.Server.run} of the
    same program.

    The wire protocol, scheduler policy and key-management model are
    documented in [docs/service.md]. *)

(** {1 Protocol vocabulary} *)

type error_code =
  | Corrupt  (** Malformed payload (maps to {!Pytfhe_util.Wire.Corrupt}). *)
  | Unknown  (** Unknown client id, session or stale keyset generation. *)
  | Evicted  (** The request's keyset was evicted. *)
  | Busy  (** Admission queue full. *)
  | Mismatch  (** Session params (transform included) differ from the keyset's. *)
  | Internal  (** Execution failure. *)

val int_of_error_code : error_code -> int
val error_code_of_int : int -> error_code
(** Raises {!Pytfhe_util.Wire.Corrupt} on an unknown code. *)

val string_of_error_code : error_code -> string

(** {1 Server statistics} *)

type tenant_traffic = { id : string; bytes_in : int; bytes_out : int }

type stats = {
  backend : string;  (** Round-trippable executor name ([cpu], [par:N], …). *)
  keysets_registered : int;
  keysets_evicted : int;
  sessions_opened : int;
  requests_admitted : int;
  requests_completed : int;
  requests_failed : int;
  batch_launches : int;  (** Cross-request launches ([run_wave] calls). *)
  batched_gates : int;
      (** Jobs executed through those launches (a LUT rotation group is
          one). *)
  batch_fill : float;
      (** [batched_gates / batch_launches] — mean jobs per launch.  On
          serial-chain workloads, a value above 1.0 proves cross-request
          packing. *)
  lut_rotations : int;  (** Of those jobs, the LUT rotation groups. *)
  queue_depth : int;  (** Admission queue length at snapshot time. *)
  active_requests : int;
  max_queue_depth : int;  (** High-water mark over the server's lifetime. *)
  latency : Pytfhe_obs.Quantile.summary;  (** Submit-to-reply seconds. *)
  tenants : tenant_traffic array;  (** Per-tenant wire bytes, sorted by id. *)
}

val write_stats : Pytfhe_util.Wire.writer -> stats -> unit
val read_stats : Pytfhe_util.Wire.reader -> stats

(** {1 Configuration} *)

type config = {
  host : string;  (** Default ["127.0.0.1"]. *)
  port : int;  (** 0 picks an ephemeral port (reported via [ready]). *)
  backlog : int;
  max_active : int;  (** Bound on concurrently-executing requests. *)
  max_queue : int;  (** Admission queue bound; excess draws [Busy]. *)
  max_program_bytes : int;
      (** Largest program binary accepted in an [SREQ] (default 64 MiB).
          An oversized submission draws [Corrupt] {e before} the server
          decodes a single instruction of it — size is the one property
          admission control can judge without paying for a parse. *)
  backend : Pytfhe_core.Server.exec_backend;
      (** The placement launches run on ({!Pytfhe_core.Server.Cpu} by
          default).  Every placement packs across requests; a [Multicore]
          one shares one domain pool across tenants. *)
  idle_timeout : float;  (** Socket-poll timeout when no work is pending. *)
}

val default_config : config

val default_opts : Pytfhe_backend.Executor.opts
(** {!Pytfhe_backend.Executor.default_opts}: the packing scheduler
    launches at most [batch] = 8 jobs at a time. *)

(** {1 The server} *)

val serve :
  ?opts:Pytfhe_backend.Executor.opts ->
  ?config:config ->
  ?ready:(int -> unit) ->
  unit ->
  stats
(** Run the server until a [SHUT] frame arrives, then drain remaining work
    and return final statistics.  [ready] is called with the bound port
    once the socket is listening (the hook a test or bench uses to learn
    an ephemeral port before connecting).  [opts.batch] is every engine's
    launch capacity (a launch packs up to [batch] jobs per domain or
    worker); [opts.obs] receives [service_queue_depth]/
    [service_batch_fill]/per-tenant byte counters.  Raises
    [Invalid_argument] when [opts.batch < 1]. *)
