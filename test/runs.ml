(* Each placement's run over a netlist through [Executor.run], returning
   the placement's native stats for the tests that inspect them. *)

open Pytfhe_backend

let on placement ?opts ck net cts = Executor.run ?opts placement ck (Wave.Netlist net) cts

let cpu ?opts ck net cts =
  match on Executor.Cpu ?opts ck net cts with
  | outs, { Executor.detail = Executor.Cpu_stats s; _ } -> (outs, s)
  | _ -> assert false

let par ~workers ?opts ck net cts =
  match on (Executor.Multicore { workers }) ?opts ck net cts with
  | outs, { Executor.detail = Executor.Multicore_stats s; _ } -> (outs, s)
  | _ -> assert false

let dist ?opts cfg ck net cts =
  let placement = Executor.Multiprocess { workers = cfg.Dist_eval.workers; config = Some cfg } in
  match on placement ?opts ck net cts with
  | outs, { Executor.detail = Executor.Multiprocess_stats s; _ } -> (outs, s)
  | _ -> assert false
