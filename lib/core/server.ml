open Pytfhe_backend

(* ------------------------------------------------------------------ *)
(* Real execution                                                      *)
(* ------------------------------------------------------------------ *)

type exec_backend = Executor.placement =
  | Cpu
  | Multicore of { workers : int }
  | Multiprocess of { workers : int; config : Dist_eval.config option }

let run ?opts backend cloud compiled inputs =
  Executor.run ?opts backend cloud (Wave.Netlist compiled.Pipeline.netlist) inputs

(* ------------------------------------------------------------------ *)
(* Cost-model simulation                                               *)
(* ------------------------------------------------------------------ *)

type sim_platform =
  | Single_core
  | Distributed of { nodes : int }
  | Gpu of Cost_model.gpu
  | Gpu_cufhe of Cost_model.gpu


let sim_platform_name = function
  | Single_core -> "single-core CPU"
  | Distributed { nodes } -> Printf.sprintf "distributed CPU (%d nodes)" nodes
  | Gpu g -> Printf.sprintf "GPU (%s)" g.Cost_model.gpu_name
  | Gpu_cufhe g -> Printf.sprintf "cuFHE (%s)" g.Cost_model.gpu_name


let estimate ?(cost = Cost_model.paper_cpu) platform compiled =
  let sched = compiled.Pipeline.schedule in
  match platform with
  | Single_core ->
    float_of_int sched.Pytfhe_circuit.Levelize.total_bootstraps *. cost.Cost_model.gate_time
  | Distributed { nodes } -> (Sched_cpu.simulate { Sched_cpu.nodes; cost } sched).Sched_cpu.makespan
  | Gpu g -> (Sched_gpu.simulate_pytfhe g ~cpu:cost sched).Sched_gpu.makespan
  | Gpu_cufhe g -> (Sched_gpu.simulate_cufhe g ~cpu:cost sched).Sched_gpu.makespan

let speedup_over_single_core ?cost platform compiled =
  let single = estimate ?cost Single_core compiled in
  let t = estimate ?cost platform compiled in
  if t > 0.0 then single /. t else 0.0

(* ------------------------------------------------------------------ *)
(* Keyset persistence                                                  *)
(* ------------------------------------------------------------------ *)

module Wire = Pytfhe_util.Wire

let save_cloud_keyset ck path =
  let buf = Buffer.create (1 lsl 20) in
  Pytfhe_tfhe.Gates.write_cloud_keyset buf ck;
  Wire.to_file path buf

let load_cloud_keyset path = Pytfhe_tfhe.Gates.read_cloud_keyset (Wire.of_file path)
