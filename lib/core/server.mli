(** The server side: execute compiled TFHE programs on ciphertexts.

    Two orthogonal choices live here and are kept apart in the API:

    - {!exec_backend} selects a {e real} executor — every gate is a
      genuine bootstrapping over LWE ciphertexts — run through {!run},
      which all backends implement behind one
      {!Pytfhe_backend.Executor.S} signature;
    - {!sim_platform} selects a {e priced} platform — {!estimate} replays
      the schedule against the calibrated cost models of the paper's
      cluster and GPUs (see DESIGN.md for the substitution rationale)
      without executing anything. *)

(** {2 Real execution} *)

(** Which executor runs the program.  All three are bit-exact with each
    other for any worker count. *)
type exec_backend =
  | Cpu  (** Sequential {!Pytfhe_backend.Tfhe_eval} on the calling thread. *)
  | Multicore of { workers : int }
      (** {!Pytfhe_backend.Par_eval} on OCaml 5 domains; [workers = 0]
          means [Domain.recommended_domain_count ()]. *)
  | Multiprocess of {
      workers : int;
      config : Pytfhe_backend.Dist_eval.config option;
    }
      (** {!Pytfhe_backend.Dist_eval} on worker OS processes; [config]
          overrides [workers] when given.  The calling executable must
          invoke {!Pytfhe_backend.Dist_eval.worker_entry} at the start of
          main. *)

val exec_backend_name : exec_backend -> string
(** The backend's canonical spelling — ["cpu"], ["par"], ["par:4"],
    ["dist:2"] — chosen to round-trip through {!exec_backend_of_name} and
    to match the CLI's [--backend] argument and the bench artifacts.
    (An explicit [Multiprocess config] renders as [dist:N]; the rest of
    the config has no spelling.) *)

val exec_backend_of_name : string -> (exec_backend, string) result
(** Parse a backend spelling: [cpu], [par], [par:N], [dist], [dist:N]
    (bare [dist] means 2 workers).  [Error] carries a human-readable
    message listing the accepted forms. *)

val executor : exec_backend -> (module Pytfhe_backend.Executor.S)
(** The first-class executor module behind each variant. *)

val run :
  ?opts:Pytfhe_backend.Executor.opts ->
  exec_backend ->
  Pytfhe_tfhe.Gates.cloud_keyset ->
  Pipeline.compiled ->
  Pytfhe_tfhe.Lwe.sample array ->
  Pytfhe_tfhe.Lwe.sample array * Pytfhe_backend.Executor.stats
(** [run backend cloud compiled inputs] evaluates the program
    homomorphically (inputs/outputs in declaration order) on the chosen
    backend, returning the unified stats record.  Execution knobs ride in
    [?opts] (default {!Pytfhe_backend.Executor.default_opts}): an enabled
    [opts.obs] sink collects spans/counters/gauges (see
    {!Pytfhe_obs.Trace} and [docs/observability.md]); [opts.batch] is the
    launch capacity of every backend's {!Pytfhe_backend.Wave} engines
    (default 8; outputs are bit-exact for every value) — see
    [docs/perf.md]. *)

(** {2 Cost-model simulation} *)

(** A priced platform of the paper's evaluation — never executed here. *)
type sim_platform =
  | Single_core
  | Distributed of { nodes : int }
  | Gpu of Pytfhe_backend.Cost_model.gpu
  | Gpu_cufhe of Pytfhe_backend.Cost_model.gpu  (** The cuFHE baseline executor. *)

val sim_platform_name : sim_platform -> string

val estimate :
  ?cost:Pytfhe_backend.Cost_model.cpu -> sim_platform -> Pipeline.compiled -> float
(** Simulated wall-clock seconds for the program on the given platform
    (default CPU calibration: the paper's). *)

val speedup_over_single_core :
  ?cost:Pytfhe_backend.Cost_model.cpu -> sim_platform -> Pipeline.compiled -> float

(** {2 Keyset persistence} *)

val save_cloud_keyset : Pytfhe_tfhe.Gates.cloud_keyset -> string -> unit
(** Persist the evaluation keys the client ships to the server. *)

val load_cloud_keyset : string -> Pytfhe_tfhe.Gates.cloud_keyset
(** Raises [Pytfhe_util.Wire.Corrupt] on malformed input. *)
