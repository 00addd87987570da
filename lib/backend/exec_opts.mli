(** Execution options, one record for every executor, the server, the
    CLI and the service.  {!Executor} re-exports it as [Executor.opts] so
    callers outside the backend library never need to name this module;
    it lives below {!Executor} so the placements' bindings
    ({!Tfhe_eval}, {!Par_eval}, {!Dist_eval}) accept it natively. *)

type t = {
  obs : Pytfhe_obs.Trace.sink;
      (** Tracing sink; {!Pytfhe_obs.Trace.null} disables all probes. *)
  batch : int;
      (** Launch capacity of every {!Wave.engine}: a wave runs in launches
          of at most [batch] jobs (1 = one gate per launch).  Must be ≥ 1;
          outputs are bit-exact for every value. *)
}

val default : t
(** [{ obs = Trace.null; batch = 8 }] — the default of every executor,
    dist worker and the service. *)
