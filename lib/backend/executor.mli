(** The executor API: one placement type, one entry point, one stats
    record every caller consumes, one options record every caller passes.

    Every run is the same loop: a {!Wave.cursor} reads the program from a
    {!Wave.source} and a placement, bound to the cloud keyset, executes
    each of its waves.  {!Tfhe_eval}, {!Par_eval} and {!Dist_eval} only
    provide the bindings; backend-specific numbers stay reachable through
    {!type-stats.detail}. *)

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
  backend : string;  (** ["cpu"], ["par"] or ["dist"]. *)
  workers : int;  (** Domains or processes used; 1 for the CPU backend. *)
  bootstraps_executed : int;  (** Jobs executed: a LUT rotation group is one. *)
  nots_executed : int;
  wall_time : float;  (** End-to-end wall seconds. *)
  wave_wall : float array;  (** Wall seconds per executed wave. *)
  wave_width : int array;  (** Jobs per executed wave. *)
  detail : detail;  (** The backend's full native stats. *)
}

(** {1 Placements} *)

(** Where waves execute.  All three are bit-exact with each other for any
    worker count and batch size. *)
type placement =
  | Cpu  (** One engine on the calling thread ({!Tfhe_eval}). *)
  | Multicore of { workers : int }
      (** {!Par_eval} on a pool of OCaml 5 domains; [workers = 0] means
          [Domain.recommended_domain_count ()]. *)
  | Multiprocess of { workers : int; config : Dist_eval.config option }
      (** {!Dist_eval} on worker OS processes; [config] overrides [workers]
          when given.  The calling executable must invoke
          {!Dist_eval.worker_entry} at the start of main. *)

val placement_name : placement -> string
(** The canonical spelling — ["cpu"], ["par"], ["par:4"], ["dist:2"] —
    chosen to round-trip through {!placement_of_name} and to match the
    CLI's [--backend] argument and the bench artifacts.  (An explicit
    [Multiprocess config] renders as [dist:N]; the rest of the config has
    no spelling.) *)

val placement_of_name : string -> (placement, string) result
(** Parse a spelling: [cpu], [par], [par:N], [dist], [dist:N] (bare
    [dist] means 2 workers).  [Error] carries a human-readable message
    listing the accepted forms. *)

type binding = detail Wave.binding
(** A placement bound to one cloud keyset. *)

val pool : placement -> Par_eval.pool option
(** A domain pool sized for a [Multicore] placement; [None] otherwise.
    One pool serves every binding {!bind} makes on it. *)

val bind :
  ?opts:opts -> ?pool:Par_eval.pool -> placement -> Pytfhe_tfhe.Gates.cloud_keyset -> binding
(** Bind a placement: cpu holds one engine, par one engine per domain of
    [pool] (without [pool], a pool of its own that {!Wave.binding.release}
    shuts down), dist a worker session.  Its capacity is [opts.batch]
    times the domains or live workers.  Raises [Invalid_argument] when
    [opts.batch < 1] or a [Multicore] worker count is negative. *)

val run :
  ?opts:opts ->
  ?window:int ->
  placement ->
  Pytfhe_tfhe.Gates.cloud_keyset ->
  Wave.source ->
  Pytfhe_tfhe.Lwe.sample array ->
  Pytfhe_tfhe.Lwe.sample array * stats
(** [run placement cloud source inputs] evaluates the program
    homomorphically (inputs and outputs in declaration order): a
    {!Wave.cursor} of segment bound [window] over [source], {!bind}, then
    {!Wave.drive}; the binding is released however the run ends.  Raises
    what {!Wave.cursor} and {!bind} raise, and [Failure] when every dist
    worker is lost. *)

(** {1 First-class views}

    Each a one-line view of {!run}: [run] over a {!Wave.Netlist} source,
    [run_stream] over a {!Wave.Pull} source (see
    {!Pytfhe_circuit.Binary.read_source} for a file). *)

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
end

val cpu : (module S)
(** [Cpu].  Name ["cpu"]. *)

val multicore : ?workers:int -> unit -> (module S)
(** [Multicore { workers }] (default 0: the recommended domain count).
    Name ["par"]. *)

val multiprocess : ?workers:int -> ?config:Dist_eval.config -> unit -> (module S)
(** [Multiprocess { workers; config }] (default 2 workers).  Name
    ["dist"]. *)

val pp_stats : Format.formatter -> stats -> unit
(** Uniform one-line rendering, followed by the backend's own [pp] where
    it has one. *)
