(** The server side: execute compiled TFHE programs on ciphertexts.

    Two orthogonal choices live here and are kept apart in the API:

    - {!exec_backend} selects a {e real} executor — every gate is a
      genuine bootstrapping over LWE ciphertexts — run through {!run},
      a view of {!Pytfhe_backend.Executor.run};
    - {!sim_platform} selects a {e priced} platform — {!estimate} replays
      the schedule against the calibrated cost models of the paper's
      cluster and GPUs (see DESIGN.md for the substitution rationale)
      without executing anything. *)

(** {2 Real execution} *)

(** Which executor runs the program: {!Pytfhe_backend.Executor.placement}
    re-exported, with its names ({!Pytfhe_backend.Executor.placement_name}). *)
type exec_backend = Pytfhe_backend.Executor.placement =
  | Cpu
  | Multicore of { workers : int }
  | Multiprocess of {
      workers : int;
      config : Pytfhe_backend.Dist_eval.config option;
    }

val run :
  ?opts:Pytfhe_backend.Executor.opts ->
  exec_backend ->
  Pytfhe_tfhe.Gates.cloud_keyset ->
  Pipeline.compiled ->
  Pytfhe_tfhe.Lwe.sample array ->
  Pytfhe_tfhe.Lwe.sample array * Pytfhe_backend.Executor.stats
(** [run backend cloud compiled inputs] is
    {!Pytfhe_backend.Executor.run} over the compiled netlist: inputs and
    outputs in declaration order, constants as trivial ciphertexts.  An
    enabled [opts.obs] sink collects spans/counters/gauges (see
    {!Pytfhe_obs.Trace} and [docs/observability.md]); [opts.batch] is the
    launch capacity of every {!Pytfhe_backend.Wave} engine (default 8;
    outputs are bit-exact for every value) — see [docs/perf.md]. *)

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
