(* Reproduction harness for every table and figure of the paper's
   evaluation (§V).  Run everything:

     dune exec bench/main.exe

   or individual experiments:

     dune exec bench/main.exe -- fig7 fig10 table4 micro
     dune exec bench/main.exe -- --quick all     # skip the slow real-crypto
                                                 # and Transpiler-MNIST parts
     dune exec bench/main.exe -- micro --smoke   # tiny-parameter micro run
                                                 # (the @bench-smoke alias)

   Absolute numbers come from the calibrated cost models in
   Backend.Cost_model (see DESIGN.md for the substitution rationale); the
   program DAGs, schedules and gate counts are real.  EXPERIMENTS.md records
   paper-vs-measured for each experiment. *)

module Rng = Pytfhe_util.Rng
module Netlist = Pytfhe_circuit.Netlist
module Gate = Pytfhe_circuit.Gate
module Stats = Pytfhe_circuit.Stats
module Levelize = Pytfhe_circuit.Levelize
module Cost_model = Pytfhe_backend.Cost_model
module Sched_cpu = Pytfhe_backend.Sched_cpu
module Sched_gpu = Pytfhe_backend.Sched_gpu
module Par_eval = Pytfhe_backend.Par_eval
module Plain_eval = Pytfhe_backend.Plain_eval
module Executor = Pytfhe_backend.Executor
module Trace = Pytfhe_obs.Trace
module Json = Pytfhe_util.Json
module Profile = Pytfhe_frameworks.Profile
module W = Pytfhe_vipbench.Workload
module Suite = Pytfhe_vipbench.Suite
open Pytfhe_core
open Pytfhe_tfhe

let cost = Cost_model.paper_cpu
let quick = ref false

let header title =
  Format.printf "@.==============================================================@.";
  Format.printf "%s@." title;
  Format.printf "==============================================================@."

let human_time t =
  if t < 1e-3 then Printf.sprintf "%.1f us" (t *. 1e6)
  else if t < 1.0 then Printf.sprintf "%.1f ms" (t *. 1e3)
  else if t < 120.0 then Printf.sprintf "%.1f s" t
  else if t < 7200.0 then Printf.sprintf "%.1f min" (t /. 60.0)
  else if t < 48.0 *. 3600.0 then Printf.sprintf "%.1f h" (t /. 3600.0)
  else Printf.sprintf "%.1f days" (t /. 86400.0)

(* ------------------------------------------------------------------ *)
(* Shared compiled programs (memoized: some figures share workloads).  *)
(* ------------------------------------------------------------------ *)

let compiled_cache : (string, Pipeline.compiled) Hashtbl.t = Hashtbl.create 32

let compiled (w : W.t) =
  match Hashtbl.find_opt compiled_cache w.W.name with
  | Some c -> c
  | None ->
    Format.printf "  [compiling %s ...]@?" w.W.name;
    let t0 = Unix.gettimeofday () in
    let c = Pipeline.compile_workload w in
    Format.printf " %d gates, %.1fs@." c.Pipeline.stats.Stats.bootstraps (Unix.gettimeofday () -. t0);
    Hashtbl.add compiled_cache w.W.name c;
    c

let bench_set () = if !quick then List.filter (fun w -> not w.W.heavy) Suite.paper_set else Suite.paper_set

(* The MNIST_S architecture shared by the framework-comparison figures. *)
let mnist_arch = Pytfhe_vipbench.Networks.mnist_model ~seed:101 ~image:28 ~conv_ch:1
let mnist_input_shape = [| 1; 28; 28 |]

let framework_cache : (string, Netlist.t) Hashtbl.t = Hashtbl.create 8

let framework_netlist (p : Profile.t) =
  match Hashtbl.find_opt framework_cache p.Profile.name with
  | Some n -> n
  | None ->
    Format.printf "  [lowering MNIST_S with the %s model ...]@?" p.Profile.name;
    let t0 = Unix.gettimeofday () in
    let n = Profile.build_model p mnist_arch ~input_shape:mnist_input_shape in
    Format.printf " %d gates, %.1fs@." (Netlist.bootstrap_count n) (Unix.gettimeofday () -. t0);
    Hashtbl.add framework_cache p.Profile.name n;
    n

let estimate_by_gate_count net =
  (* The paper's footnote 1: baseline runtime = gate count / single-core
     throughput of the TFHE library. *)
  float_of_int (Netlist.bootstrap_count net) *. cost.Cost_model.gate_time

(* ------------------------------------------------------------------ *)
(* Fig. 7 — profile of one bootstrapped gate on a single CPU core       *)
(* ------------------------------------------------------------------ *)

let fig7 () =
  header "Fig. 7 — single-core TFHE gate profile (blind rotation / key switch / communication)";
  let paper_gate = cost.Cost_model.gate_time in
  Format.printf "paper platform (Xeon Gold 5215, TFHE C++ library):@.";
  Format.printf "  blind rotation     %8s  (%.1f%%)@."
    (human_time (paper_gate *. cost.Cost_model.blind_rotation_fraction))
    (100.0 *. cost.Cost_model.blind_rotation_fraction);
  Format.printf "  key switching      %8s  (%.1f%%)@."
    (human_time (paper_gate *. cost.Cost_model.key_switch_fraction))
    (100.0 *. cost.Cost_model.key_switch_fraction);
  Format.printf "  communication      %8s  (%.3f%%)  [2.46 KB ciphertext on a 1 Gb NIC]@."
    (human_time cost.Cost_model.comm_time)
    (100.0 *. cost.Cost_model.comm_time /. paper_gate);
  Format.printf "  total              %8s@." (human_time paper_gate);
  Format.printf "  ciphertext size: %d bytes@." (Lwe.ciphertext_bytes ~n:630);
  if !quick then Format.printf "@.(--quick: skipping the live measurement of this repository's TFHE implementation)@."
  else begin
    Format.printf "@.this repository's OCaml TFHE at default-128 parameters (live measurement):@.";
    let rng = Rng.create ~seed:7001 () in
    let t0 = Unix.gettimeofday () in
    let sk, ck = Gates.key_gen rng Params.default_128 in
    Format.printf "  key generation     %8s@." (human_time (Unix.gettimeofday () -. t0));
    let a = Gates.encrypt_bit rng sk true and b = Gates.encrypt_bit rng sk false in
    let p = Params.default_128 in
    let combined = Lwe.add (Lwe.add (Lwe.trivial ~n:p.Params.lwe.Params.n (Torus.mod_switch_to 7 ~msize:8)) a) b in
    let n_iters = 4 in
    let t0 = Unix.gettimeofday () in
    let ext = ref (Bootstrap.bootstrap_wo_keyswitch p ck.Gates.bootstrap_key ~mu:(Params.mu p) combined) in
    for _ = 2 to n_iters do
      ext := Bootstrap.bootstrap_wo_keyswitch p ck.Gates.bootstrap_key ~mu:(Params.mu p) combined
    done;
    let t_br = (Unix.gettimeofday () -. t0) /. float_of_int n_iters in
    let t0 = Unix.gettimeofday () in
    for _ = 1 to n_iters do
      ignore (Keyswitch.apply ck.Gates.keyswitch_key !ext)
    done;
    let t_ks = (Unix.gettimeofday () -. t0) /. float_of_int n_iters in
    let total = t_br +. t_ks in
    Format.printf "  blind rotation     %8s  (%.1f%%)@." (human_time t_br) (100.0 *. t_br /. total);
    Format.printf "  key switching      %8s  (%.1f%%)@." (human_time t_ks) (100.0 *. t_ks /. total);
    Format.printf "  total per gate     %8s@." (human_time total);
    Format.printf
      "  -> same shape as the paper: blind rotation dominates; the absolute gap@.";
    Format.printf
      "     (%.0fx) is OCaml-vs-AVX2 FFT, and divides out of every speedup figure.@."
      (total /. paper_gate)
  end

(* ------------------------------------------------------------------ *)
(* Figs. 8 & 9 — GPU execution timelines                                *)
(* ------------------------------------------------------------------ *)

let four_gate_chain () =
  let net = Netlist.create ~hash_consing:false ~fold_constants:false () in
  let a = Netlist.input net "a" in
  let b = Netlist.input net "b" in
  let g1 = Netlist.gate net Gate.And a b in
  let g2 = Netlist.gate net Gate.Xor g1 b in
  let g3 = Netlist.gate net Gate.Or g2 a in
  let g4 = Netlist.gate net Gate.Nand g3 b in
  Netlist.mark_output net "o" g4;
  net

let print_timeline segments =
  List.iter
    (fun s ->
      Format.printf "  %8.2f ms  ->  %8.2f ms   %s@." (s.Sched_gpu.t_start *. 1e3)
        (s.Sched_gpu.t_end *. 1e3) s.Sched_gpu.label)
    segments

let fig8 () =
  header "Fig. 8 — cuFHE backend: per-gate H2D / kernel / D2H, fully serialized";
  let sched = Levelize.run (four_gate_chain ()) in
  let r = Sched_gpu.simulate_cufhe Cost_model.gpu_a5000 ~cpu:cost sched in
  print_timeline r.Sched_gpu.timeline;
  Format.printf "  total: %s for 4 gates — the CPU thread blocks on every call@."
    (human_time r.Sched_gpu.makespan)

let fig9 () =
  header "Fig. 9 — PyTFHE GPU backend: CUDA-Graph batch, overlapped construction";
  let sched = Levelize.run (four_gate_chain ()) in
  let r = Sched_gpu.simulate_pytfhe Cost_model.gpu_a5000 ~cpu:cost sched in
  print_timeline r.Sched_gpu.timeline;
  Format.printf "  total: %s — one graph launch; the next batch builds while this one runs@."
    (human_time r.Sched_gpu.makespan)

(* ------------------------------------------------------------------ *)
(* Fig. 10 — distributed CPU vs single-threaded CPU on VIP-Bench        *)
(* ------------------------------------------------------------------ *)

let fig10 () =
  header "Fig. 10 — PyTFHE distributed CPU vs single-threaded CPU (speedups; sorted by gate count)";
  let rows =
    List.map
      (fun w ->
        let c = compiled w in
        let r1 = Sched_cpu.simulate { Sched_cpu.nodes = 1; cost } c.Pipeline.schedule in
        let r4 = Sched_cpu.simulate { Sched_cpu.nodes = 4; cost } c.Pipeline.schedule in
        (w.W.name, c.Pipeline.stats.Stats.bootstraps, r1, r4))
      (bench_set ())
  in
  let rows = List.sort (fun (_, a, _, _) (_, b, _, _) -> compare a b) rows in
  Format.printf "@.%-20s %10s %12s | %10s | %10s@." "WORKLOAD" "GATES" "1-THREAD" "1 NODE" "4 NODES";
  Format.printf "%-20s %10s %12s | %10s | %10s@." "" "" "" "(ideal 18)" "(ideal 72)";
  List.iter
    (fun (name, gates, r1, r4) ->
      Format.printf "%-20s %10d %12s | %9.1fx | %9.1fx@." name gates
        (human_time r1.Sched_cpu.single_thread_time)
        r1.Sched_cpu.speedup r4.Sched_cpu.speedup)
    rows;
  Format.printf
    "@.paper: 17.4x of ideal 18 on one node and 60.5x of ideal 72 on four nodes for the@.";
  Format.printf
    "large MNIST networks; small/serial benchmarks (NRSolver, Euler, Parrondo) do not scale.@."

(* ------------------------------------------------------------------ *)
(* Fig. 11 — PyTFHE GPU vs cuFHE                                        *)
(* ------------------------------------------------------------------ *)

let fig11 () =
  header "Fig. 11 — PyTFHE GPU backend vs cuFHE (speedup over cuFHE on the same GPU)";
  let rows =
    List.map
      (fun w ->
        let c = compiled w in
        let a5000 = Sched_gpu.speedup_over_cufhe Cost_model.gpu_a5000 ~cpu:cost c.Pipeline.schedule in
        let r4090 = Sched_gpu.speedup_over_cufhe Cost_model.gpu_4090 ~cpu:cost c.Pipeline.schedule in
        (w.W.name, c.Pipeline.stats.Stats.bootstraps, a5000, r4090))
      (bench_set ())
  in
  let rows = List.sort (fun (_, a, _, _) (_, b, _, _) -> compare a b) rows in
  Format.printf "@.%-20s %10s %12s %12s@." "WORKLOAD" "GATES" "A5000" "RTX 4090";
  List.iter
    (fun (name, gates, a, b) -> Format.printf "%-20s %10d %11.1fx %11.1fx@." name gates a b)
    rows;
  let best = List.fold_left (fun acc (_, _, a, _) -> Float.max acc a) 0.0 rows in
  Format.printf "@.peak speedup over cuFHE: %.1fx (paper: up to 61.5x); serial benchmarks@." best;
  Format.printf "(Parrondo, Euler, NRSolver) show modest gains, as in the paper.@."

(* ------------------------------------------------------------------ *)
(* Figs. 12/13/14 and Table IV — framework comparison on MNIST_S        *)
(* ------------------------------------------------------------------ *)

let mnist_pytfhe () = compiled (Option.get (Suite.find "mnist_s"))

let fig12 () =
  header "Fig. 12 — Google Transpiler vs PyTFHE on MNIST_S (frontend x backend matrix)";
  if !quick then Format.printf "(--quick: skipped — requires the 30M-gate Transpiler lowering)@."
  else begin
    let gt_net = framework_netlist Profile.transpiler in
    let gt_sched = Levelize.run gt_net in
    let pyt = mnist_pytfhe () in
    let gt_gc = estimate_by_gate_count gt_net in
    let gt_pyt_cpu = (Sched_cpu.simulate { Sched_cpu.nodes = 4; cost } gt_sched).Sched_cpu.makespan in
    let gt_pyt_a5000 = (Sched_gpu.simulate_pytfhe Cost_model.gpu_a5000 ~cpu:cost gt_sched).Sched_gpu.makespan in
    let gt_pyt_4090 = (Sched_gpu.simulate_pytfhe Cost_model.gpu_4090 ~cpu:cost gt_sched).Sched_gpu.makespan in
    let pyt_cpu = Server.estimate (Server.Distributed { nodes = 4 }) pyt in
    let pyt_a5000 = Server.estimate (Server.Gpu Cost_model.gpu_a5000) pyt in
    let pyt_4090 = Server.estimate (Server.Gpu Cost_model.gpu_4090) pyt in
    Format.printf "@.%-34s %12s %10s@." "FRONTEND + BACKEND" "RUNTIME" "SPEEDUP";
    let row name t = Format.printf "%-34s %12s %9.1fx@." name (human_time t) (gt_gc /. t) in
    row "GT + GC (Transpiler end-to-end)" gt_gc;
    row "GT + PyT CPU (4 nodes)" gt_pyt_cpu;
    row "GT + PyT GPU (A5000)" gt_pyt_a5000;
    row "GT + PyT GPU (4090)" gt_pyt_4090;
    row "PyT + PyT CPU (4 nodes)" pyt_cpu;
    row "PyT + PyT GPU (A5000)" pyt_a5000;
    row "PyT + PyT GPU (4090)" pyt_4090;
    Format.printf
      "@.paper: GT+GC takes days; GT+PyT gains 52x (CPU) / 69-89x (GPU); swapping in the@.";
    Format.printf "ChiselTorch frontend (PyT+PyT) improves the speedup further (28x-3369x overall).@."
  end

let fig13 () =
  header "Fig. 13 — runtime of MNIST_S across frameworks";
  if !quick then Format.printf "(--quick: skipped)@."
  else begin
    let pyt = mnist_pytfhe () in
    Format.printf "@.%-34s %12s@." "FRAMEWORK / BACKEND" "RUNTIME";
    let row name t = Format.printf "%-34s %12s@." name (human_time t) in
    row "E3 (single core, est.)" (estimate_by_gate_count (framework_netlist Profile.e3));
    row "Cingulata (single core, est.)" (estimate_by_gate_count (framework_netlist Profile.cingulata));
    row "Transpiler (single core, est.)" (estimate_by_gate_count (framework_netlist Profile.transpiler));
    row "PyTFHE single core" (Server.estimate Server.Single_core pyt);
    row "PyTFHE 1 node (18 workers)" (Server.estimate (Server.Distributed { nodes = 1 }) pyt);
    row "PyTFHE 4 nodes (72 workers)" (Server.estimate (Server.Distributed { nodes = 4 }) pyt);
    row "PyTFHE GPU (A5000)" (Server.estimate (Server.Gpu Cost_model.gpu_a5000) pyt);
    row "PyTFHE GPU (4090)" (Server.estimate (Server.Gpu Cost_model.gpu_4090) pyt);
    Format.printf
      "@.(baseline runtimes are gate count / single-core throughput, the paper's own footnote-1@.";
    Format.printf "methodology for Cingulata, E3 and Transpiler)@."
  end

let fig14 () =
  header "Fig. 14 — gate distribution of the MNIST_S network per framework";
  if !quick then Format.printf "(--quick: skipped)@."
  else begin
    let pyt = mnist_pytfhe () in
    let entries =
      List.map (fun p -> (p.Profile.name, framework_netlist p)) [ Profile.e3; Profile.cingulata; Profile.transpiler ]
      @ [ ("PyTFHE", pyt.Pipeline.netlist) ]
    in
    List.iter
      (fun (name, net) ->
        let s = Stats.compute net in
        Format.printf "@.%s: %d gates (%d bootstrapped)@." name s.Stats.gates s.Stats.bootstraps;
        Format.printf "%a" Stats.pp_distribution s)
      entries;
    let pyt_b = Netlist.bootstrap_count pyt.Pipeline.netlist in
    Format.printf "@.gate-count ratios (PyTFHE = 1.00):@.";
    List.iter
      (fun (name, net) ->
        Format.printf "  %-12s %6.2fx   (PyTFHE is %.1f%% of %s)@." name
          (float_of_int (Netlist.bootstrap_count net) /. float_of_int pyt_b)
          (100.0 *. float_of_int pyt_b /. float_of_int (Netlist.bootstrap_count net))
          name)
      entries;
    Format.printf
      "@.paper: PyTFHE emits 65.3%% of Cingulata's gates and 53.6%% of E3's; Transpiler is@.";
    Format.printf
      "far larger because the total-order C lowering emits gates even for Flatten.@."
  end

let table4 () =
  header "Table IV — speedup of PyTFHE over E3, Cingulata and Transpiler (MNIST_S)";
  if !quick then Format.printf "(--quick: skipped)@."
  else begin
    let pyt = mnist_pytfhe () in
    let baselines =
      [
        ("E3", estimate_by_gate_count (framework_netlist Profile.e3));
        ("Cingulata", estimate_by_gate_count (framework_netlist Profile.cingulata));
        ("Transpiler", estimate_by_gate_count (framework_netlist Profile.transpiler));
      ]
    in
    let pytfhe_rows =
      [
        ("PyTFHE Single Core", Server.estimate Server.Single_core pyt);
        ("PyTFHE 1 Node", Server.estimate (Server.Distributed { nodes = 1 }) pyt);
        ("PyTFHE 4 Nodes", Server.estimate (Server.Distributed { nodes = 4 }) pyt);
        ("PyTFHE A5000 GPU", Server.estimate (Server.Gpu Cost_model.gpu_a5000) pyt);
        ("PyTFHE 4090 GPU", Server.estimate (Server.Gpu Cost_model.gpu_4090) pyt);
      ]
    in
    Format.printf "@.%-22s" "";
    List.iter (fun (name, _) -> Format.printf "%12s" name) baselines;
    Format.printf "@.";
    List.iter
      (fun (row_name, t) ->
        Format.printf "%-22s" row_name;
        List.iter (fun (_, base) -> Format.printf "%11.1fx" (base /. t)) baselines;
        Format.printf "@.")
      pytfhe_rows;
    Format.printf "@.paper:                       E3   Cingulata  Transpiler@.";
    Format.printf "  Single Core             1.5x        1.8x       28.4x@.";
    Format.printf "  1 Node                 23.0x       28.1x      427.9x@.";
    Format.printf "  4 Nodes                80.6x       98.2x     1497.4x@.";
    Format.printf "  A5000 GPU             108.7x      132.4x     2019.8x@.";
    Format.printf "  4090 GPU              218.9x      266.9x     4070.5x@."
  end

(* ------------------------------------------------------------------ *)
(* `micro` — per-primitive timings and allocated words per gate         *)
(* ------------------------------------------------------------------ *)

let smoke = ref false

(* Deliberately undersized (and insecure) parameters: key generation and a
   handful of gate iterations finish well under a second, so the smoke run
   can sit on a dune alias and catch hot-path allocation regressions without
   the multi-second test-parameter run. *)
let smoke_params =
  Params.custom ~name:"micro-smoke" ~n:8 ~lwe_stdev:(2.0 ** -20.0) ~ring_n:64 ~k:1
    ~tlwe_stdev:(2.0 ** -30.0) ~l:2 ~bg_bit:6 ~ks_t:4 ~ks_base_bit:2 ()

(* Wall time and allocated words per call.  A short warmup keeps one-time
   setup (FFT table construction, lazy initialization) out of the
   measurement; allocation is the [Gc.allocated_bytes] delta.  The explicit
   [Gc.minor] around the loop matters: the runtime only folds the live
   minor-heap region into its allocation counters at collection time, so
   without the flush short loops under-report by up to a minor heap. *)
let measure ?(warmup = 2) ~iters f =
  for _ = 1 to warmup do
    f ()
  done;
  Gc.minor ();
  let a0 = Gc.allocated_bytes () in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to iters do
    f ()
  done;
  let wall = (Unix.gettimeofday () -. t0) /. float_of_int iters in
  Gc.minor ();
  let words =
    (Gc.allocated_bytes () -. a0) /. float_of_int (Sys.word_size / 8) /. float_of_int iters
  in
  (wall, words)

(* y_i <- y_i XOR NOT y_(i+1 mod 8) for 12 rounds: 96 bootstraps in 8-wide
   waves, 96 NOTs, 8 outputs. *)
let lattice () =
  let net = Netlist.create () in
  let y = Array.init 8 (fun i -> Netlist.input net (Printf.sprintf "y%d" i)) in
  for _ = 1 to 12 do
    let prev = Array.copy y in
    Array.iteri
      (fun i v -> y.(i) <- Netlist.gate net Gate.Xor v (Netlist.not_ net prev.((i + 1) mod 8)))
      prev
  done;
  Array.iteri (fun i v -> Netlist.mark_output net (Printf.sprintf "o%d" i) v) y;
  net

let micro () =
  header "micro — per-primitive gate profile and allocated words per bootstrapped gate";
  let open Pytfhe_fft in
  let p = if !smoke then smoke_params else Params.test in
  let iters = if !smoke then 50 else 20 in
  let fft_iters = if !smoke then 200 else 2000 in
  let n = p.Params.tlwe.Params.ring_n in
  Format.printf "parameters: %a@." Params.pp p;
  let rng = Rng.create ~seed:8001 () in
  let tlwe_key = Tlwe.key_gen rng p in
  let ws = Tgsw.workspace_create p in
  let g = Tgsw.to_fft p (Tgsw.encrypt_int rng p tlwe_key 1) in
  Format.printf "  [generating keys ...]@?";
  let t0 = Unix.gettimeofday () in
  let sk, ck = Gates.key_gen (Rng.create ~seed:8002 ()) p in
  Format.printf " %.1fs@." (Unix.gettimeofday () -. t0);
  let bit_a = Gates.encrypt_bit rng sk true in
  let bit_b = Gates.encrypt_bit rng sk false in
  let bit_s = Gates.encrypt_bit rng sk true in
  let bkey = ck.Gates.bootstrap_key in
  let mu = Params.mu p in
  (* Caller-owned buffers for the in-place paths. *)
  let poly = Array.init n (fun _ -> Rng.float rng -. 0.5) in
  let spec = Negacyclic.spectrum_create n in
  let back = Array.make n 0.0 in
  let accs = Trlwe_array.create p ~cap:1 in
  let bt = Bootstrap.batch_create p ~cap:1 in
  let combined = Lwe_array.of_samples ~n:p.Params.lwe.Params.n [| Lwe.add bit_a bit_b |] in
  let slots = Lwe_array.create ~n:(Params.extracted_n p) 1 in
  let ext = Bootstrap.bootstrap_wo_keyswitch p bkey ~mu bit_a in
  let cases =
    [
      ("fft/forward", fft_iters, fun () -> Negacyclic.forward_into spec poly);
      ("fft/backward", fft_iters, fun () -> Negacyclic.backward_into back spec);
      ("tfhe/cmux-row", iters, fun () -> Tgsw.cmux_rotate_row_into p ws g 1 accs ~row:0);
      ( "tfhe/blind-rotate-row",
        iters,
        fun () ->
          Bootstrap.batch_rows_into p bt bkey [| Bootstrap.Job_sign mu |] ~src:combined ~dst:slots
      );
      ("tfhe/keyswitch", iters, fun () -> ignore (Keyswitch.apply ck.Gates.keyswitch_key ext));
      ("tfhe/gate-nand", iters, fun () -> ignore (Gates.nand_gate ck bit_a bit_b));
      (* MUX = one two-row launch + one key switch; roughly 2x a binary
         gate's time and allocation. *)
      ("tfhe/gate-mux", iters, fun () -> ignore (Gates.mux_gate ck bit_s bit_a bit_b));
    ]
  in
  Format.printf "@.%-34s %12s %16s@." "PRIMITIVE" "TIME/OP" "ALLOC WORDS/OP";
  let results =
    List.map
      (fun (name, iters, f) ->
        let wall, words = measure ~iters f in
        Format.printf "%-34s %12s %16.0f@." name (human_time wall) words;
        (name, wall, words))
      cases
  in
  let find name =
    let _, wall, words = List.find (fun (n, _, _) -> n = name) results in
    (wall, words)
  in
  let gate_wall, gate_words = find "tfhe/gate-nand" in
  let mux_wall, mux_words = find "tfhe/gate-mux" in
  (* What a cpu run allocates beyond the kernel: the lattice's words minus
     the kernel's words per row (an 8-row launch) for each of its 96
     bootstraps, per bootstrap. *)
  let rows = Lwe_array.of_samples ~n:p.Params.lwe.Params.n (Array.make 8 bit_a) in
  let bc = Gates.batch_context ck ~cap:8 in
  let _, kernel_words = measure ~iters (fun () -> ignore (Gates.bootstrap_batch_rows bc rows)) in
  let net = lattice () in
  let cts = Array.init 8 (fun i -> if i mod 2 = 0 then bit_a else bit_b) in
  let run_wall, run_words =
    measure ~warmup:1 ~iters:2 (fun () ->
        ignore (Executor.run Executor.Cpu ck (Pytfhe_backend.Wave.Netlist net) cts))
  in
  let run_wall = run_wall /. 96.0 and run_words = (run_words /. 96.0) -. (kernel_words /. 8.0) in
  Format.printf "%-34s %12s %16.0f@." "backend/run-cpu" (human_time run_wall) run_words;
  let results = results @ [ ("backend/run-cpu", run_wall, run_words) ] in
  Format.printf "@.allocated words per bootstrapped gate: %.0f@." gate_words;
  Format.printf "allocated words per MUX (one two-row launch): %.0f@." mux_words;
  Format.printf "allocated words per bootstrap of a cpu run, beyond the kernel: %.0f@." run_words;
  if !smoke then Format.printf "(--smoke: skipping BENCH_gate_micro.json)@."
  else begin
    let json =
      Json.Obj
        [
          ("params", Json.String p.Params.name);
          ("ring_n", Json.Number (float_of_int n));
          ("lwe_n", Json.Number (float_of_int p.Params.lwe.Params.n));
          ( "primitives",
            Json.List
              (List.map
                 (fun (name, wall, words) ->
                   Json.Obj
                     [
                       ("name", Json.String name);
                       ("time_s", Json.Number wall);
                       ("alloc_words", Json.Number words);
                     ])
                 results) );
          ("gate_time_s", Json.Number gate_wall);
          ("gate_alloc_words", Json.Number gate_words);
          ("mux_time_s", Json.Number mux_wall);
          ("mux_alloc_words", Json.Number mux_words);
          ("run_alloc_beyond_kernel_words", Json.Number run_words);
        ]
    in
    let path = "BENCH_gate_micro.json" in
    Out_channel.with_open_text path (fun oc -> output_string oc (Json.to_string ~indent:true json));
    Format.printf "@.wrote %s@." path
  end

(* ------------------------------------------------------------------ *)
(* `ntt` — exact double-prime NTT vs complex FFT                        *)
(* ------------------------------------------------------------------ *)

let ntt_bench () =
  header "ntt — double-prime NTT vs complex FFT: transform micro, full gates, exactness";
  let open Pytfhe_fft in
  (* (a) Transform micro at the production ring size: one forward, one
     backward, one full negacyclic product per backend.  The NTT pays two
     modular passes (one per prime) against the FFT's single complex pass;
     the interesting question is the constant, not the asymptotics. *)
  let n = 1024 in
  let iters = if !smoke then 128 else 2048 in
  let rng = Rng.create ~seed:4242 () in
  Negacyclic.precompute n;
  Ntt.precompute n;
  (* Every primitive cycles through [pool] distinct inputs, as gates feed
     it fresh ciphertext data: replaying one input lets the branch
     predictor learn its pattern and under-reports the cost. *)
  let pool = 64 in
  let inputs f = Array.init pool (fun _ -> Array.init n (fun _ -> f ())) in
  let ipolys = inputs (fun () -> Rng.int rng 64 - 32) in
  let tpolys = inputs (fun () -> Rng.int rng (1 lsl 30) - (1 lsl 29)) in
  let fas = Array.map (Array.map float_of_int) ipolys in
  let fbs = Array.map (Array.map float_of_int) tpolys in
  let fpolys = inputs (fun () -> Rng.float rng -. 0.5) in
  let fspecs = Array.map Negacyclic.forward fpolys in
  let fback = Array.make n 0.0 in
  let nspecs = Array.map Ntt.forward ipolys in
  let nback = Array.make n 0 in
  let cycled f =
    let i = ref 0 in
    fun () ->
      f (!i land (pool - 1));
      incr i
  in
  let micro_cases =
    [
      ("fft/forward", cycled (fun i -> Negacyclic.forward_into fspecs.(i) fpolys.(i)));
      ("fft/backward", cycled (fun i -> Negacyclic.backward_into fback fspecs.(i)));
      ("fft/polymul", cycled (fun i -> ignore (Negacyclic.polymul fas.(i) fbs.(i))));
      ("ntt/forward", cycled (fun i -> Ntt.forward_into nspecs.(i) ipolys.(i)));
      ("ntt/backward", cycled (fun i -> Ntt.backward_into nback nspecs.(i)));
      ("ntt/polymul", cycled (fun i -> ignore (Ntt.polymul ipolys.(i) tpolys.(i))));
    ]
  in
  Format.printf "@.transform micro at N = %d:@." n;
  Format.printf "%-20s %12s@." "PRIMITIVE" "TIME/OP";
  let micro_results =
    List.map
      (fun (name, f) ->
        let wall, _ = measure ~iters f in
        Format.printf "%-20s %12s@." name (human_time wall);
        (name, wall))
      micro_cases
  in
  (* (b) Exactness: the NTT product must equal the schoolbook reference
     coefficient for coefficient — including gadget-scale magnitudes. *)
  let exact_vs_naive =
    Ntt.polymul ipolys.(0) tpolys.(0) = Ntt.polymul_naive ipolys.(0) tpolys.(0)
  in
  Format.printf "@.ntt/polymul == schoolbook at gadget magnitudes: %b@." exact_vs_naive;
  (* (c) Full bootstrapped gates under both transforms.  Keys are grown
     from the same seed, so the FFT and NTT runs see identical key
     material and identical input ciphertexts; at these magnitudes the
     FFT's products round to exact integers, so the two gate outputs must
     be bit-identical — that equality is the [ntt_ok] CI gate. *)
  let gate_runs = ref [] in
  let ntt_ok = ref true in
  let gate_under (base : Params.t) =
    (* At least 10 NANDs at test parameters even in --smoke, where CI reads
       the slowdown; default_128 gates cost ~0.5 s each. *)
    let iters = if !smoke && not (Params.equal base Params.test) then 1 else 10 in
    let outputs =
      List.map
        (fun kind ->
          let p = Params.with_transform base kind in
          let rng = Rng.create ~seed:9090 () in
          Format.printf "  [%s/%s: generating keys ...]@?" base.Params.name
            (Transform.kind_name kind);
          let t0 = Unix.gettimeofday () in
          let sk, ck = Gates.key_gen rng p in
          Format.printf " %.1fs@." (Unix.gettimeofday () -. t0);
          let a = Gates.encrypt_bit rng sk true in
          let b = Gates.encrypt_bit rng sk false in
          let pairs =
            Array.init iters (fun _ ->
                (Gates.encrypt_bit rng sk (Rng.bool rng), Gates.encrypt_bit rng sk (Rng.bool rng)))
          in
          ignore (Gates.nand_gate ck a b);
          let next = ref 0 in
          let wall, _ =
            measure ~warmup:0 ~iters (fun () ->
                let x, y = pairs.(!next) in
                incr next;
                ignore (Gates.nand_gate ck x y))
          in
          Format.printf "  %s/%s NAND: %s/gate@." base.Params.name
            (Transform.kind_name kind) (human_time wall);
          let out = Gates.nand_gate ck a b in
          if not (Gates.decrypt_bit sk out) then begin
            Format.printf "  %s/%s NAND DECRYPTS WRONG@." base.Params.name
              (Transform.kind_name kind);
            ntt_ok := false
          end;
          gate_runs :=
            (base.Params.name, Transform.kind_name kind, wall) :: !gate_runs;
          (kind, out))
        [ Transform.Fft; Transform.Ntt ]
    in
    match outputs with
    | [ (_, off); (_, ont) ] ->
      let equal = off.Lwe.a = ont.Lwe.a && off.Lwe.b = ont.Lwe.b in
      Format.printf "  %s: FFT and NTT gate outputs bit-equal: %b@." base.Params.name equal;
      if not equal then ntt_ok := false
    | _ -> assert false
  in
  gate_under Params.test;
  gate_under Params.default_128;
  let ntt_ok = !ntt_ok && exact_vs_naive in
  let micro_time name = List.assoc name micro_results in
  let gate_time pname kname =
    let _, _, w = List.find (fun (p, k, _) -> p = pname && k = kname) !gate_runs in
    w
  in
  let json =
    Json.Obj
      [
        ("smoke", Json.Bool !smoke);
        ("ring_n", Json.Number (float_of_int n));
        ( "micro",
          Json.List
            (List.map
               (fun (name, wall) ->
                 Json.Obj [ ("name", Json.String name); ("time_s", Json.Number wall) ])
               micro_results) );
        ("ntt_polymul_exact", Json.Bool exact_vs_naive);
        ( "gates",
          Json.List
            (List.map
               (fun (pname, kname, wall) ->
                 Json.Obj
                   [
                     ("params", Json.String pname);
                     ("transform", Json.String kname);
                     ("gate_time_s", Json.Number wall);
                   ])
               (List.rev !gate_runs)) );
        ( "ntt_vs_fft_polymul_slowdown",
          Json.Number (micro_time "ntt/polymul" /. Float.max (micro_time "fft/polymul") 1e-12) );
        ( "ntt_vs_fft_gate_slowdown_test",
          Json.Number
            (gate_time Params.test.Params.name "ntt"
            /. Float.max (gate_time Params.test.Params.name "fft") 1e-12) );
        (* CI smoke gate: the NTT path must be exact against the schoolbook
           reference, decrypt correctly, and produce gate outputs bit-equal
           to the FFT's under both parameter sets. *)
        ("ntt_ok", Json.Bool ntt_ok);
      ]
  in
  (* Written in smoke mode too: CI runs `ntt --smoke` and uploads it. *)
  let path = "BENCH_ntt.json" in
  Out_channel.with_open_text path (fun oc -> output_string oc (Json.to_string ~indent:true json));
  Format.printf "@.wrote %s@." path;
  (* Exactness is deterministic — a mismatch is a correctness bug, not
     jitter — so it fails the bench run outright (after the artifact is on
     disk for debugging). *)
  if not ntt_ok then exit 1

(* ------------------------------------------------------------------ *)
(* Ablations of the design choices DESIGN.md calls out                  *)
(* ------------------------------------------------------------------ *)

let ablation () =
  header "Ablations — adder architecture, scheduler policy, GPU batching, synthesis passes";

  (* (a) Adder architecture: gate count vs depth, and what each backend
     makes of the trade. *)
  Format.printf "@.(a) adder architecture on a 16-element 32-bit vector sum:@.";
  let build_sum adder =
    let net = Netlist.create () in
    let xs = Array.init 16 (fun i -> Pytfhe_hdl.Bus.input net (Printf.sprintf "x%d" i) 32) in
    let total = Array.fold_left (fun acc x -> adder net acc x) xs.(0) (Array.sub xs 1 15) in
    Pytfhe_hdl.Bus.output net "sum" total;
    net
  in
  let build_single adder =
    let net = Netlist.create () in
    let a = Pytfhe_hdl.Bus.input net "a" 64 in
    let b = Pytfhe_hdl.Bus.input net "b" 64 in
    Pytfhe_hdl.Bus.output net "s" (adder net a b);
    net
  in
  let adders =
    [
      ("ripple-carry", fun net a b -> Pytfhe_hdl.Arith.add net a b);
      ("kogge-stone", fun net a b -> Pytfhe_hdl.Arith.add_fast net a b);
    ]
  in
  Format.printf "%-14s %10s %8s %7s %14s %14s@." "ADDER" "SHAPE" "GATES" "DEPTH" "4-NODE EST" "A5000 EST";
  List.iter
    (fun (shape, build) ->
      List.iter
        (fun (name, adder) ->
          let net = build adder in
          let sched = Levelize.run net in
          let dist = (Sched_cpu.simulate { Sched_cpu.nodes = 4; cost } sched).Sched_cpu.makespan in
          let gpu = (Sched_gpu.simulate_pytfhe Cost_model.gpu_a5000 ~cpu:cost sched).Sched_gpu.makespan in
          Format.printf "%-14s %10s %8d %7d %14s %14s@." name shape (Netlist.bootstrap_count net)
            sched.Levelize.depth (human_time dist) (human_time gpu))
        adders)
    [ ("single", build_single); ("chained", build_sum) ];
  Format.printf
    "-> the prefix adder wins depth (latency) on an isolated add, but loses everywhere in a@.";
  Format.printf
    "   chained accumulation: successive ripple carries overlap wave-by-wave, so the cheaper@.";
  Format.printf "   adder also ends up no deeper.  Gate count (= single-core time) always favours ripple.@.";

  (* (b) Scheduler policy: Algorithm 1's wave barriers vs event-driven ASAP. *)
  Format.printf "@.(b) wave-synchronous (Algorithm 1) vs event-driven ASAP dispatch, 4 nodes:@.";
  Format.printf "%-20s %12s %12s %9s@." "WORKLOAD" "BARRIER" "ASAP" "GAIN";
  let sched_workloads = [ "nr_solver"; "rc_edge_detection"; "box_blur"; "mnist_tiny" ] in
  List.iter
    (fun name ->
      match Suite.find name with
      | None -> ()
      | Some w ->
        let net = (compiled w).Pipeline.netlist in
        let config = { Sched_cpu.nodes = 4; cost } in
        let barrier = Sched_cpu.simulate config (Levelize.run net) in
        let asap = Sched_cpu.simulate_asap config net in
        Format.printf "%-20s %12s %12s %8.2fx@." name
          (human_time barrier.Sched_cpu.makespan)
          (human_time asap.Sched_cpu.makespan)
          (barrier.Sched_cpu.makespan /. asap.Sched_cpu.makespan))
    sched_workloads;

  (* (c) GPU batching policy. *)
  Format.printf "@.(c) GPU execution policy (A5000):@.";
  Format.printf "%-20s %14s %14s %14s@." "WORKLOAD" "PER-GATE" "TYPE-BATCHED" "CUDA GRAPHS";
  List.iter
    (fun name ->
      match Suite.find name with
      | None -> ()
      | Some w ->
        let c = compiled w in
        let net = c.Pipeline.netlist in
        let per_gate = Sched_gpu.simulate_cufhe Cost_model.gpu_a5000 ~cpu:cost c.Pipeline.schedule in
        let batched = Sched_gpu.simulate_cufhe_batched Cost_model.gpu_a5000 ~cpu:cost net in
        let graphs = Sched_gpu.simulate_pytfhe Cost_model.gpu_a5000 ~cpu:cost c.Pipeline.schedule in
        Format.printf "%-20s %14s %14s %14s@." name
          (human_time per_gate.Sched_gpu.makespan)
          (human_time batched.Sched_gpu.makespan)
          (human_time graphs.Sched_gpu.makespan))
    sched_workloads;

  (* (d) Synthesis passes. *)
  Format.printf "@.(d) synthesis optimization (bootstrapped gates before -> after):@.";
  List.iter
    (fun name ->
      match Suite.find name with
      | None -> ()
      | Some w ->
        let raw = w.W.circuit () in
        let optimized, report = Pytfhe_synth.Opt.optimize raw in
        ignore optimized;
        Format.printf "  %-20s %a@." name Pytfhe_synth.Opt.pp_report report)
    [ "dot_product"; "nr_solver"; "primality"; "mnist_tiny"; "attention_tiny" ]

(* ------------------------------------------------------------------ *)
(* Parameter design space (§II-D: why the default set looks like that)  *)
(* ------------------------------------------------------------------ *)

let params_explorer () =
  header "Parameter explorer — gadget decomposition (l, log2 Bg) vs noise and gate cost";
  Format.printf
    "n=630, N=1024, sigma_lwe=2^-15, sigma_bk=2^-25 fixed; per-gate cost scales with l@.";
  Format.printf "(each blind-rotation step runs (k+1)(l+1) FFTs: l forward per component + inverses)@.@.";
  Format.printf "%4s %8s %14s %16s %10s@." "l" "log2 Bg" "decomp bits" "gate failure" "rel. cost";
  List.iter
    (fun (l, bg_bit) ->
      if l * bg_bit <= 32 then begin
        let p =
          Params.custom ~name:(Printf.sprintf "l%d-bg%d" l bg_bit) ~n:630
            ~lwe_stdev:(2.0 ** -15.0) ~ring_n:1024 ~k:1 ~tlwe_stdev:(2.0 ** -25.0) ~l ~bg_bit
            ~ks_t:8 ~ks_base_bit:2 ()
        in
        let prob = Noise.gate_failure_probability p in
        let marker =
          match Noise.check p with `Ok _ -> "" | `Unsafe _ -> "  <- UNSAFE"
        in
        Format.printf "%4d %8d %14d %16.2e %9.2fx%s@." l bg_bit (l * bg_bit) prob
          (float_of_int l /. 3.0) marker
      end)
    [ (1, 16); (2, 8); (2, 12); (3, 7); (3, 9); (4, 6); (4, 8); (6, 5) ];
  Format.printf
    "@.the shipped default (l=3, Bg=2^7) sits at the knee: one less level is unsafe,@.";
  Format.printf "one more costs a third more FFT work for no useful noise headroom.@."

(* ------------------------------------------------------------------ *)
(* Par_eval — real multicore execution vs the Sched_cpu cost model      *)
(* ------------------------------------------------------------------ *)

let par () =
  header "Par — real multicore TFHE execution (Par_eval) vs the Sched_cpu cost model";
  if !quick then Format.printf "(--quick: skipped — runs real crypto for every worker count)@."
  else begin
    let w = Option.get (Suite.find "hamming_distance") in
    let c = compiled w in
    let sched = c.Pipeline.schedule in
    let seed = 4242 in
    Format.printf "  [generating keys (test parameters) ...]@?";
    let t0 = Unix.gettimeofday () in
    let client, cloud = Client.keygen ~params:Params.test ~seed () in
    Format.printf " %.1fs@." (Unix.gettimeofday () -. t0);
    let rng = Rng.create ~seed:(seed + 1) () in
    let n_in = Netlist.input_count c.Pipeline.netlist in
    let ins = Array.init n_in (fun _ -> Rng.bool rng) in
    let cts = Client.encrypt_bits client ins in
    Format.printf "  [sequential reference (Tfhe_eval) ...]@?";
    let seq_out, seq_stats = Server.run Server.Cpu cloud c cts in
    let seq_wall = seq_stats.Executor.wall_time in
    let bootstraps = seq_stats.Executor.bootstraps_executed in
    Format.printf " %s (%d bootstraps)@." (human_time seq_wall) bootstraps;
    let bits = Client.decrypt_bits client seq_out in
    let expected = Plain_eval.run c.Pipeline.netlist ins in
    let plain_ok = List.for_all2 (fun (_, e) g -> e = g) expected (Array.to_list bits) in
    (* Calibrate the distributed-CPU simulator to this machine's measured
       gate time, then strip the cluster overheads (no NIC, no Ray scheduler
       here) so it predicts pure shared-memory wave execution. *)
    let measured_gate_time = seq_wall /. float_of_int (max 1 bootstraps) in
    let base = Cost_model.calibrated_cpu ~measured_gate_time in
    let local_cost =
      { base with Cost_model.comm_time = 0.0; submit_time = 0.0; sync_time = 0.0;
        startup_time = 0.0; workers_per_node = 1 }
    in
    let worker_counts = [ 1; 2; 4; 8 ] in
    let rows =
      List.map
        (fun workers ->
          let outs, est = Server.run (Server.Multicore { workers }) cloud c cts in
          let st =
            match est.Executor.detail with
            | Executor.Multicore_stats p -> p
            | _ -> assert false
          in
          let exact = outs = seq_out in
          let measured = seq_wall /. st.Par_eval.wall_time in
          let simulated =
            (Sched_cpu.simulate { Sched_cpu.nodes = workers; cost = local_cost } sched)
              .Sched_cpu.speedup
          in
          (workers, st, exact, measured, simulated))
        worker_counts
    in
    Format.printf "@.%-8s %10s %10s %11s %8s %10s@."
      "WORKERS" "WALL" "MEASURED" "SIMULATED" "IDEAL" "BIT-EXACT";
    List.iter
      (fun (workers, st, exact, measured, simulated) ->
        Format.printf "%-8d %10s %9.2fx %10.2fx %7.2fx %10s@." workers
          (human_time st.Par_eval.wall_time) measured simulated st.Par_eval.ideal_speedup
          (if exact then "yes" else "NO"))
      rows;
    let host_domains = Domain.recommended_domain_count () in
    Format.printf "@.host offers %d domain%s; with fewer cores than workers the measured@."
      host_domains (if host_domains = 1 then "" else "s");
    Format.printf
      "column saturates at the core count while SIMULATED/IDEAL show what the@.";
    Format.printf "same wave schedule yields once real cores exist (paper Fig. 10).@.";
    if not plain_ok then Format.printf "WARNING: decryption disagrees with Plain_eval!@.";
    let all_exact = List.for_all (fun (_, _, e, _, _) -> e) rows in
    if not all_exact then Format.printf "WARNING: parallel output differs from Tfhe_eval!@.";
    let json =
      Json.Obj
        [
          ("workload", Json.String w.W.name);
          ("params", Json.String "test");
          ("bootstraps", Json.Number (float_of_int bootstraps));
          ("depth", Json.Number (float_of_int sched.Levelize.depth));
          ("sequential_wall_s", Json.Number seq_wall);
          ("measured_gate_time_s", Json.Number measured_gate_time);
          ("host_domains", Json.Number (float_of_int host_domains));
          ("plain_eval_agrees", Json.Bool plain_ok);
          ( "runs",
            Json.List
              (List.map
                 (fun (workers, st, exact, measured, simulated) ->
                   Json.Obj
                     [
                       ("workers", Json.Number (float_of_int workers));
                       ("wall_s", Json.Number st.Par_eval.wall_time);
                       ("measured_speedup", Json.Number measured);
                       ("simulated_speedup", Json.Number simulated);
                       ("ideal_speedup", Json.Number st.Par_eval.ideal_speedup);
                       ("achieved_speedup", Json.Number st.Par_eval.achieved_speedup);
                       ("bit_exact", Json.Bool exact);
                       ( "per_domain_bootstraps",
                         Json.List
                           (Array.to_list
                              (Array.map
                                 (fun b -> Json.Number (float_of_int b))
                                 st.Par_eval.per_domain_bootstraps)) );
                     ])
                 rows) );
        ]
    in
    let path = "BENCH_par_eval.json" in
    Out_channel.with_open_text path (fun oc -> output_string oc (Json.to_string ~indent:true json));
    Format.printf "@.wrote %s@." path
  end

(* ------------------------------------------------------------------ *)
(* Dist_eval — real multi-process execution: measured dispatch/transfer/
   compute split vs the Sched_cpu modelled split for the same workload    *)
(* ------------------------------------------------------------------ *)

module Dist_eval = Pytfhe_backend.Dist_eval

let dist () =
  header "Dist — real multi-process TFHE execution (Dist_eval) vs the Sched_cpu cost model";
  if !quick then Format.printf "(--quick: skipped — runs real crypto across worker processes)@."
  else begin
    let w = Option.get (Suite.find "hamming_distance") in
    let c = compiled w in
    let sched = c.Pipeline.schedule in
    let seed = 5252 in
    Format.printf "  [generating keys (test parameters) ...]@?";
    let t0 = Unix.gettimeofday () in
    let client, cloud = Client.keygen ~params:Params.test ~seed () in
    Format.printf " %.1fs@." (Unix.gettimeofday () -. t0);
    let rng = Rng.create ~seed:(seed + 1) () in
    let n_in = Netlist.input_count c.Pipeline.netlist in
    let ins = Array.init n_in (fun _ -> Rng.bool rng) in
    let cts = Client.encrypt_bits client ins in
    Format.printf "  [sequential reference (Tfhe_eval) ...]@?";
    let seq_out, seq_stats = Server.run Server.Cpu cloud c cts in
    let seq_wall = seq_stats.Executor.wall_time in
    let bootstraps = seq_stats.Executor.bootstraps_executed in
    Format.printf " %s (%d bootstraps)@." (human_time seq_wall) bootstraps;
    (* The modelled counterpart: the same wave schedule priced by Sched_cpu
       with this machine's measured gate time, one worker per node so
       nodes = worker processes. *)
    let measured_gate_time = seq_wall /. float_of_int (max 1 bootstraps) in
    let base = Cost_model.calibrated_cpu ~measured_gate_time in
    let model_cost = { base with Cost_model.workers_per_node = 1 } in
    let run_once ?(faults = []) workers =
      let cfg = Dist_eval.config ~faults workers in
      let outs, est =
        Server.run (Server.Multiprocess { workers; config = Some cfg }) cloud c cts
      in
      let st =
        match est.Executor.detail with
        | Executor.Multiprocess_stats d -> d
        | _ -> assert false
      in
      (outs = seq_out, st)
    in
    let worker_counts = [ 1; 2; 4 ] in
    let rows =
      List.map
        (fun workers ->
          let exact, st = run_once workers in
          let model = Sched_cpu.simulate { Sched_cpu.nodes = workers; cost = model_cost } sched in
          (workers, st, exact, model))
        worker_counts
    in
    Format.printf "@.%-8s %10s %10s %10s %10s %10s %10s@." "WORKERS" "WALL" "DISPATCH"
      "TRANSFER" "COMPUTE" "SHIPPED" "BIT-EXACT";
    List.iter
      (fun (workers, st, exact, _) ->
        Format.printf "%-8d %10s %10s %10s %10s %9dK %10s@." workers
          (human_time st.Dist_eval.wall_time)
          (human_time st.Dist_eval.dispatch_time)
          (human_time st.Dist_eval.transfer_time)
          (human_time st.Dist_eval.compute_time)
          ((st.Dist_eval.bytes_to_workers + st.Dist_eval.bytes_from_workers) / 1024)
          (if exact then "yes" else "NO"))
      rows;
    Format.printf "@.measured vs modelled split (fraction of busy time per category):@.";
    Format.printf "%-8s %26s %26s@." "" "MEASURED (disp/xfer/comp)" "MODELLED (disp/sync/comp)";
    List.iter
      (fun (workers, st, _, model) ->
        let m_total =
          Float.max 1e-9
            (st.Dist_eval.dispatch_time +. st.Dist_eval.transfer_time +. st.Dist_eval.compute_time)
        in
        let s_total =
          Float.max 1e-9
            (model.Sched_cpu.dispatch_time +. model.Sched_cpu.sync_time
           +. model.Sched_cpu.compute_time)
        in
        Format.printf "%-8d %8.1f%% /%5.1f%% /%5.1f%% %9.1f%% /%5.1f%% /%5.1f%%@." workers
          (100.0 *. st.Dist_eval.dispatch_time /. m_total)
          (100.0 *. st.Dist_eval.transfer_time /. m_total)
          (100.0 *. st.Dist_eval.compute_time /. m_total)
          (100.0 *. model.Sched_cpu.dispatch_time /. s_total)
          (100.0 *. model.Sched_cpu.sync_time /. s_total)
          (100.0 *. model.Sched_cpu.compute_time /. s_total))
      rows;
    (* Fault drill: kill one of three workers mid-run; the survivors must
       absorb its shard and the outputs must stay bit-exact. *)
    Format.printf "@.  [fault drill: SIGKILL worker 1 of 3 mid-wave ...]@?";
    let fault_exact, fault_st =
      run_once ~faults:[ { Dist_eval.victim = 1; after_requests = 2; action = Dist_eval.Crash } ] 3
    in
    Format.printf " %s, %d lost, %d reassigned, bit-exact: %s@."
      (human_time fault_st.Dist_eval.wall_time)
      fault_st.Dist_eval.workers_lost fault_st.Dist_eval.reassignments
      (if fault_exact then "yes" else "NO");
    let all_exact = fault_exact && List.for_all (fun (_, _, e, _) -> e) rows in
    if not all_exact then Format.printf "WARNING: distributed output differs from Tfhe_eval!@.";
    let split_json (st : Dist_eval.stats) =
      [
        ("wall_s", Json.Number st.Dist_eval.wall_time);
        ("startup_s", Json.Number st.Dist_eval.startup_time);
        ("dispatch_s", Json.Number st.Dist_eval.dispatch_time);
        ("transfer_s", Json.Number st.Dist_eval.transfer_time);
        ("compute_s", Json.Number st.Dist_eval.compute_time);
        ("requests", Json.Number (float_of_int st.Dist_eval.requests_sent));
        ("retries", Json.Number (float_of_int st.Dist_eval.retries));
        ("reassignments", Json.Number (float_of_int st.Dist_eval.reassignments));
        ("workers_lost", Json.Number (float_of_int st.Dist_eval.workers_lost));
        ("keyset_bytes", Json.Number (float_of_int st.Dist_eval.keyset_bytes));
        ("bytes_to_workers", Json.Number (float_of_int st.Dist_eval.bytes_to_workers));
        ("bytes_from_workers", Json.Number (float_of_int st.Dist_eval.bytes_from_workers));
      ]
    in
    let json =
      Json.Obj
        [
          ("workload", Json.String w.W.name);
          ("params", Json.String "test");
          ("bootstraps", Json.Number (float_of_int bootstraps));
          ("depth", Json.Number (float_of_int sched.Levelize.depth));
          ("sequential_wall_s", Json.Number seq_wall);
          ("measured_gate_time_s", Json.Number measured_gate_time);
          ( "runs",
            Json.List
              (List.map
                 (fun (workers, st, exact, model) ->
                   Json.Obj
                     ([
                        ("workers", Json.Number (float_of_int workers));
                        ("bit_exact", Json.Bool exact);
                        ( "modelled",
                          Json.Obj
                            [
                              ("makespan_s", Json.Number model.Sched_cpu.makespan);
                              ("dispatch_s", Json.Number model.Sched_cpu.dispatch_time);
                              ("sync_s", Json.Number model.Sched_cpu.sync_time);
                              ("compute_s", Json.Number model.Sched_cpu.compute_time);
                            ] );
                      ]
                     @ split_json st))
                 rows) );
          ( "fault_run",
            Json.Obj
              ([ ("workers", Json.Number 3.0); ("bit_exact", Json.Bool fault_exact) ]
              @ split_json fault_st) );
        ]
    in
    let path = "BENCH_dist_eval.json" in
    Out_channel.with_open_text path (fun oc -> output_string oc (Json.to_string ~indent:true json));
    Format.printf "@.wrote %s@." path
  end

(* ------------------------------------------------------------------ *)
(* Obs — overhead of the observability layer on the sequential executor *)
(* ------------------------------------------------------------------ *)

let obs_bench () =
  header "Obs — tracing overhead: uninstrumented loop vs disabled sink vs enabled sink";
  let p = if !smoke then smoke_params else Params.test in
  let chain = if !smoke then 48 else 200 in
  let reps = if !smoke then 3 else 5 in
  (* A pure serial chain is the worst case for per-gate probe overhead:
     nothing amortizes it, and every gate is its own wave when traced. *)
  let net = Netlist.create ~hash_consing:false ~fold_constants:false () in
  let a = Netlist.input net "a" in
  let b = Netlist.input net "b" in
  let kinds = [| Gate.And; Gate.Xor; Gate.Or; Gate.Nand |] in
  let cur = ref a in
  for i = 0 to chain - 1 do
    cur := Netlist.gate net kinds.(i mod Array.length kinds) !cur b
  done;
  Netlist.mark_output net "o" !cur;
  Format.printf "parameters: %a; %d-gate serial chain, best of %d reps@." Params.pp p chain reps;
  Format.printf "  [generating keys ...]@?";
  let t0 = Unix.gettimeofday () in
  let rng = Rng.create ~seed:6061 () in
  let sk, cloud = Gates.key_gen rng p in
  Format.printf " %.1fs@." (Unix.gettimeofday () -. t0);
  let ins = [| Gates.encrypt_bit rng sk true; Gates.encrypt_bit rng sk false |] in
  (* The pre-observability executor, re-created verbatim as the fixed
     reference: an id-order walk of scalar gates with no sink, no flag
     check, no stats beyond what the loop needs. *)
  let baseline () =
    let n = Netlist.node_count net in
    let values : Lwe.sample option array = Array.make n None in
    List.iteri (fun i (_, id) -> values.(id) <- Some ins.(i)) (Netlist.inputs net);
    for id = 0 to n - 1 do
      match Netlist.kind net id with
      | Netlist.Input _ -> ()
      | Netlist.Const bv -> values.(id) <- Some (Gates.constant cloud bv)
      | Netlist.Gate (g, x, y) ->
        let vx = Option.get values.(x) and vy = Option.get values.(y) in
        let gate =
          match g with
          | Gate.And -> Gates.and_gate
          | Gate.Xor -> Gates.xor_gate
          | Gate.Or -> Gates.or_gate
          | Gate.Nand -> Gates.nand_gate
          | _ -> assert false (* the chain draws from [kinds] only *)
        in
        values.(id) <- Some (gate cloud vx vy)
      | Netlist.Lut _ -> assert false (* the chain generator emits no LUT cells *)
    done
  in
  let best f =
    let m = ref infinity in
    for _ = 1 to reps do
      let t0 = Unix.gettimeofday () in
      f ();
      m := Float.min !m (Unix.gettimeofday () -. t0)
    done;
    !m
  in
  let t_base = best baseline in
  let run opts = Executor.run ~opts Executor.Cpu cloud (Pytfhe_backend.Wave.Netlist net) ins in
  let t_null = best (fun () -> ignore (run Executor.default_opts)) in
  let last_sink = ref Trace.null in
  let t_traced =
    best (fun () ->
        let s = Trace.create () in
        last_sink := s;
        ignore (run { Executor.default_opts with obs = s }))
  in
  let evs = Trace.events !last_sink in
  let nevents = List.length evs in
  let nspans = List.length (List.filter (function Trace.Span _ -> true | _ -> false) evs) in
  let disabled_overhead = (t_null -. t_base) /. t_base in
  let enabled_overhead = (t_traced -. t_base) /. t_base in
  Format.printf "@.%-36s %12s %10s@." "EXECUTOR" "WALL" "OVERHEAD";
  Format.printf "%-36s %12s %10s@." "uninstrumented id-order loop" (human_time t_base) "-";
  Format.printf "%-36s %12s %+9.2f%%@." "Executor.run Cpu, sink disabled" (human_time t_null)
    (100.0 *. disabled_overhead);
  Format.printf "%-36s %12s %+9.2f%%@." "Executor.run Cpu, sink enabled" (human_time t_traced)
    (100.0 *. enabled_overhead);
  Format.printf "enabled run captured %d events (%d spans over %d waves)@." nevents nspans chain;
  Format.printf "disabled-sink overhead %s the 2%% budget%s@."
    (if disabled_overhead < 0.02 then "meets" else "EXCEEDS")
    (if !smoke then "  (smoke parameters: gate time is tiny, expect jitter)" else "");
  let json =
    Json.Obj
      [
        ("params", Json.String p.Params.name);
        ("smoke", Json.Bool !smoke);
        ("chain_gates", Json.Number (float_of_int chain));
        ("reps", Json.Number (float_of_int reps));
        ("baseline_wall_s", Json.Number t_base);
        ("disabled_sink_wall_s", Json.Number t_null);
        ("enabled_sink_wall_s", Json.Number t_traced);
        ("disabled_overhead_fraction", Json.Number disabled_overhead);
        ("enabled_overhead_fraction", Json.Number enabled_overhead);
        ("events", Json.Number (float_of_int nevents));
        ("spans", Json.Number (float_of_int nspans));
      ]
  in
  let path = "BENCH_obs_overhead.json" in
  Out_channel.with_open_text path (fun oc -> output_string oc (Json.to_string ~indent:true json));
  Format.printf "@.wrote %s@." path

(* ------------------------------------------------------------------ *)
(* Batch — key-streaming batched bootstrap kernel vs per-gate execution
   (the CPU analog of the paper's Fig. 9 CUDA-Graph wave batching)        *)
(* ------------------------------------------------------------------ *)

let batch_bench () =
  header "Batch — wave-batched key-streaming bootstrap kernel vs per-gate execution";
  let p = if !smoke then smoke_params else Params.test in
  let width = if !smoke then 14 else 24 in
  let depth = if !smoke then 3 else 3 in
  (* Individual runs jitter by several percent on a loaded machine — more
     than the effect under measurement — so take the best of several. *)
  let reps = 8 in
  (* A wide layered circuit: every layer is one wave of [width] independent
     bootstrapped gates — the shape wave batching exists for. *)
  let net = Netlist.create ~hash_consing:false ~fold_constants:false () in
  let ins_ids = Array.init (width + 1) (fun i -> Netlist.input net (Printf.sprintf "i%d" i)) in
  let kinds = [| Gate.Xor; Gate.And; Gate.Or; Gate.Nand; Gate.Xnor |] in
  let cur = ref (Array.sub ins_ids 0 width) in
  for d = 0 to depth - 1 do
    cur :=
      Array.mapi
        (fun j v -> Netlist.gate net kinds.((d + j) mod Array.length kinds) v ins_ids.(width))
        !cur
  done;
  Array.iteri (fun j v -> Netlist.mark_output net (Printf.sprintf "o%d" j) v) !cur;
  let sched = Levelize.run net in
  Format.printf "parameters: %a; %d waves x %d gates, best of %d reps@." Params.pp p depth
    width reps;
  Format.printf "  [generating keys ...]@?";
  let t0 = Unix.gettimeofday () in
  let rng = Rng.create ~seed:7077 () in
  let sk, cloud = Gates.key_gen rng p in
  Format.printf " %.1fs@." (Unix.gettimeofday () -. t0);
  ignore sk;
  let cts = Array.init (width + 1) (fun _ -> Gates.encrypt_bit rng sk (Rng.bool rng)) in
  let best f =
    let m = ref infinity and out = ref None in
    for _ = 1 to reps do
      let t0 = Unix.gettimeofday () in
      let r = f () in
      m := Float.min !m (Unix.gettimeofday () -. t0);
      out := Some r
    done;
    (Option.get !out, !m)
  in
  let module Tfhe_eval = Pytfhe_backend.Tfhe_eval in
  let bootstraps = width * depth in
  let batch_sizes = [ 1; 4; 8 ] in
  (* One code path over the identical schedule and ciphertexts: the wave
     engine at launch capacity 1 (one gate per launch, keys streamed once
     per gate), 4 and 8.  Every wall time is the best of [reps] runs;
     comparing best-of-N against best-of-N keeps scheduler jitter out of
     the throughput verdict. *)
  let rows =
    List.map
      (fun b ->
        let (outs, st), wall =
          best (fun () ->
              match
                Executor.run ~opts:{ Executor.default_opts with batch = b } Executor.Cpu cloud
                  (Pytfhe_backend.Wave.Netlist net) cts
              with
              | outs, { Executor.detail = Executor.Cpu_stats st; _ } -> (outs, st)
              | _ -> assert false)
        in
        let bsk_per_gate =
          float_of_int st.Tfhe_eval.bsk_bytes_streamed /. float_of_int (max 1 bootstraps)
        in
        let ks_per_gate =
          float_of_int st.Tfhe_eval.ks_bytes_streamed /. float_of_int (max 1 bootstraps)
        in
        (b, wall, outs, st, bsk_per_gate, ks_per_gate))
      batch_sizes
  in
  let row b = List.find (fun (b', _, _, _, _, _) -> b' = b) rows in
  let wall_at b =
    let _, w, _, _, _, _ = row b in
    w
  in
  let bsk_at b =
    let _, _, _, _, v, _ = row b in
    v
  in
  let _, _, scalar_out, _, _, _ = row 1 in
  let exact (_, _, outs, _, _, _) = outs = scalar_out in
  Format.printf "@.%-7s %10s %12s %16s %16s %10s@." "BATCH" "WALL" "GATES/S" "BSK BYTES/GATE"
    "KS BYTES/GATE" "BIT-EXACT";
  List.iter
    (fun ((b, wall, _, _, bsk_pg, ks_pg) as r) ->
      Format.printf "%-7d %10s %12.1f %16.0f %16.0f %10s@." b (human_time wall)
        (float_of_int bootstraps /. wall)
        bsk_pg ks_pg
        (if exact r then "yes" else "NO"))
    rows;
  let reduction4 = bsk_at 1 /. Float.max (bsk_at 4) 1.0 in
  let wall1 = wall_at 1 in
  let wall4 = wall_at 4 in
  let wall8 = wall_at 8 in
  let all_exact = List.for_all exact rows in
  let speedup4 = wall1 /. wall4 in
  let speedup8 = wall1 /. wall8 in
  Format.printf "@.bootstrap-key traffic at batch 4: %.2fx less than batch 1%s@." reduction4
    (if reduction4 >= 2.0 then "  (meets the 2x target)" else "  (BELOW the 2x target!)");
  Format.printf "batched throughput: %.2fx vs batch 1 (x8: %.2fx)%s@." speedup4 speedup8
    (if wall4 <= wall1 *. 1.02 then "" else "  (batch 4 is SLOWER than batch 1!)");
  if not all_exact then Format.printf "ERROR: batched output differs from batch 1!@.";
  (* The Fig. 9 analog on the model side: the same wave schedule priced as
     cuFHE per-gate launches vs fused CUDA-Graph batches. *)
  let gpu = Cost_model.gpu_a5000 in
  let cufhe = Sched_gpu.simulate_cufhe gpu ~cpu:cost sched in
  let graph = Sched_gpu.simulate_pytfhe gpu ~cpu:cost sched in
  Format.printf "@.Sched_gpu model on this schedule: cuFHE per-gate %s vs CUDA-Graph %s (%.1fx)@."
    (human_time cufhe.Sched_gpu.makespan) (human_time graph.Sched_gpu.makespan)
    (cufhe.Sched_gpu.makespan /. Float.max graph.Sched_gpu.makespan 1e-12);
  let json =
    Json.Obj
      [
        ("params", Json.String p.Params.name);
        ("smoke", Json.Bool !smoke);
        ("wave_width", Json.Number (float_of_int width));
        ("waves", Json.Number (float_of_int depth));
        ("bootstraps", Json.Number (float_of_int bootstraps));
        ("reps", Json.Number (float_of_int reps));
        ("batch1_wall_s", Json.Number wall1);
        ("batch1_gates_per_s", Json.Number (float_of_int bootstraps /. wall1));
        ( "runs",
          Json.List
            (List.map
               (fun ((b, wall, _, st, bsk_pg, ks_pg) as r) ->
                 Json.Obj
                   [
                     ("batch", Json.Number (float_of_int b));
                     ("wall_s", Json.Number wall);
                     ("gates_per_s", Json.Number (float_of_int bootstraps /. wall));
                     ("bit_exact", Json.Bool (exact r));
                     ("batch_launches", Json.Number (float_of_int st.Tfhe_eval.batch_launches));
                     ("bsk_bytes_streamed", Json.Number (float_of_int st.Tfhe_eval.bsk_bytes_streamed));
                     ("ks_bytes_streamed", Json.Number (float_of_int st.Tfhe_eval.ks_bytes_streamed));
                     ("bsk_bytes_per_gate", Json.Number bsk_pg);
                     ("ks_bytes_per_gate", Json.Number ks_pg);
                   ])
               rows) );
        ("bsk_traffic_reduction_at_4", Json.Number reduction4);
        ("bsk_reduction_meets_2x", Json.Bool (reduction4 >= 2.0));
        (* best-of-N on both sides of every ratio below *)
        ("batched_speedup_x4", Json.Number speedup4);
        ("batched_speedup_x8", Json.Number speedup8);
        ("throughput_margin", Json.Number speedup4);
        ("batched_throughput_ge_pergate", Json.Bool (wall4 <= wall1));
        ("all_bit_exact", Json.Bool all_exact);
        (* CI smoke gate: every batch size bit-exact and batch 4 not
           slower than the one-gate launch (10% jitter allowance — smoke
           parameters run in milliseconds). *)
        ("soa_ok", Json.Bool (all_exact && wall4 <= wall1 *. 1.10));
        ( "gpu_model",
          Json.Obj
            [
              ("cufhe_makespan_s", Json.Number cufhe.Sched_gpu.makespan);
              ("cuda_graph_makespan_s", Json.Number graph.Sched_gpu.makespan);
              ( "graph_speedup",
                Json.Number (cufhe.Sched_gpu.makespan /. Float.max graph.Sched_gpu.makespan 1e-12) );
            ] );
      ]
  in
  (* Written in smoke mode too: CI runs `batch --smoke` and uploads it. *)
  let path = "BENCH_batch.json" in
  Out_channel.with_open_text path (fun oc -> output_string oc (Json.to_string ~indent:true json));
  Format.printf "@.wrote %s@." path;
  (* Bit-exactness is deterministic — a mismatch is a correctness bug, not
     jitter — so it fails the bench run outright (after the artifact is on
     disk for debugging). *)
  if not all_exact then exit 1

(* ------------------------------------------------------------------ *)
(* Lut — programmable LUT covering: bootstrap counts on the VIP-Bench
   kernels plus an encrypted end-to-end correctness gate                *)
(* ------------------------------------------------------------------ *)

let lut_bench () =
  header "LUT — programmable 2-/3-input LUT covering vs the classic gate library";
  let module Opt = Pytfhe_synth.Opt in
  (* Smoke covers three representative kernels; the full run sweeps every
     light VIP-Bench workload.  Both are pure compile-time measurements —
     the covering pass never touches ciphertexts — so the bootstrap counts
     are exact, not sampled. *)
  let kernels =
    if !smoke then
      List.filter_map Suite.find [ "hamming_distance"; "bubble_sort"; "dot_product" ]
    else Suite.light
  in
  let rows =
    List.map
      (fun (w : W.t) ->
        let net = w.W.circuit () in
        let base, _ = Opt.optimize net in
        let cov, _ = Opt.lut_cover net in
        let sb = Stats.compute base and sc = Stats.compute cov in
        (* Plain-domain equivalence of the covered netlist against the
           optimized baseline (exhaustive up to 16 inputs). *)
        let equiv = Opt.equivalent base cov in
        let reduction =
          float_of_int sb.Stats.bootstraps /. float_of_int (max 1 sc.Stats.bootstraps)
        in
        (w.W.name, sb, sc, equiv, reduction))
      kernels
  in
  Format.printf "@.%-20s %11s %12s %10s %9s %7s %7s %6s@." "KERNEL" "BOOTSTRAPS"
    "LUT-COVERED" "REDUCTION" "LUT CELLS" "GROUPS" "REENC" "EQUIV";
  List.iter
    (fun (name, sb, sc, equiv, reduction) ->
      Format.printf "%-20s %11d %12d %9.2fx %9d %7d %7d %6s@." name sb.Stats.bootstraps
        sc.Stats.bootstraps reduction sc.Stats.luts sc.Stats.lut_groups sc.Stats.reencodes
        (if equiv then "yes" else "NO"))
    rows;
  let all_equiv = List.for_all (fun (_, _, _, e, _) -> e) rows in
  let target = 1.3 in
  let wins = List.length (List.filter (fun (_, _, _, _, r) -> r >= target) rows) in
  Format.printf "@.%d of %d kernels at or above the %.1fx reduction target@." wins
    (List.length rows) target;
  if not all_equiv then Format.printf "ERROR: a covered netlist is NOT equivalent to its baseline!@.";
  (* The end-to-end gate: compile one kernel with the covering pass, run it
     for real on TFHE ciphertexts, and check the decryption against the
     plain evaluation of the ORIGINAL (uncovered) circuit.  This exercises
     the whole chain — lutdom encoding, reencode cells, rotation sharing,
     classic views at the outputs — under real noise. *)
  let enc_w = List.hd kernels in
  let p = Params.test in
  Format.printf "@.encrypted check on %s (%a)@." enc_w.W.name Params.pp p;
  Format.printf "  [generating keys ...]@?";
  let t0 = Unix.gettimeofday () in
  let client, cloud = Client.keygen ~params:p ~seed:4242 () in
  Format.printf " %.1fs@." (Unix.gettimeofday () -. t0);
  let covered = Pipeline.compile ~lut_cover:true ~name:enc_w.W.name (enc_w.W.circuit ()) in
  let rng = Rng.create ~seed:9090 () in
  let n = Netlist.input_count covered.Pipeline.netlist in
  let ins = Array.init n (fun _ -> Rng.bool rng) in
  let cts = Client.encrypt_bits client ins in
  let t0 = Unix.gettimeofday () in
  let outs, stats = Server.run Server.Cpu cloud covered cts in
  let enc_wall = Unix.gettimeofday () -. t0 in
  let bits = Client.decrypt_bits client outs in
  let expected = Plain_eval.run (enc_w.W.circuit ()) ins in
  let enc_match = List.for_all2 (fun (_, e) g -> e = g) expected (Array.to_list bits) in
  let enc_boots = stats.Executor.bootstraps_executed in
  Format.printf "  %d bootstraps in %s (%.1f ms/rotation), outputs %s@." enc_boots
    (human_time enc_wall)
    (1000.0 *. enc_wall /. float_of_int (max 1 enc_boots))
    (if enc_match then "MATCH the uncovered plaintext reference" else "MISMATCH!");
  (* CI smoke gate: every covered kernel equivalent, the encrypted run
     correct, and the paper-style win — at least two VIP-Bench kernels at
     >= 1.3x fewer bootstraps — present. *)
  let lut_ok = all_equiv && enc_match && wins >= 2 in
  let json =
    Json.Obj
      [
        ("params", Json.String p.Params.name);
        ("smoke", Json.Bool !smoke);
        ("reduction_target", Json.Number target);
        ( "kernels",
          Json.List
            (List.map
               (fun (name, sb, sc, equiv, reduction) ->
                 Json.Obj
                   [
                     ("name", Json.String name);
                     ("gates_opt", Json.Number (float_of_int sb.Stats.gates));
                     ("bootstraps_opt", Json.Number (float_of_int sb.Stats.bootstraps));
                     ("gates_lut", Json.Number (float_of_int sc.Stats.gates));
                     ("bootstraps_lut", Json.Number (float_of_int sc.Stats.bootstraps));
                     ("lut_cells", Json.Number (float_of_int sc.Stats.luts));
                     ("lut_groups", Json.Number (float_of_int sc.Stats.lut_groups));
                     ("reencodes", Json.Number (float_of_int sc.Stats.reencodes));
                     ("reduction", Json.Number reduction);
                     ("equivalent", Json.Bool equiv);
                   ])
               rows) );
        ("kernels_at_or_above_target", Json.Number (float_of_int wins));
        ("all_equivalent", Json.Bool all_equiv);
        ( "encrypted",
          Json.Obj
            [
              ("kernel", Json.String enc_w.W.name);
              ("backend", Json.String "cpu");
              ("bootstraps_executed", Json.Number (float_of_int enc_boots));
              ("wall_s", Json.Number enc_wall);
              ("match", Json.Bool enc_match);
            ] );
        ("lut_ok", Json.Bool lut_ok);
      ]
  in
  (* Written in smoke mode too: CI runs `lut --smoke` and uploads it. *)
  let path = "BENCH_lut.json" in
  Out_channel.with_open_text path (fun oc -> output_string oc (Json.to_string ~indent:true json));
  Format.printf "@.wrote %s@." path;
  (* Equivalence and encrypted correctness are deterministic — a failure is
     a covering-pass bug, not jitter — so it fails the bench run outright
     (after the artifact is on disk for debugging). *)
  if not lut_ok then exit 1

(* ------------------------------------------------------------------ *)
(* Service — FHE-as-a-service load generator: open-loop arrivals at
   swept offered load against the persistent server, measuring p50/p99
   latency, throughput and cross-request batch fill                      *)
(* ------------------------------------------------------------------ *)

module Service = Pytfhe_service.Service
module Service_client = Pytfhe_service.Service_client
module Quantile = Pytfhe_obs.Quantile

(* A fully serial XOR chain exposes exactly one ready gate per wave, so a
   batch fill above 1.0 on chain-only traffic is reachable only by the
   scheduler packing gates of concurrent requests into one launch — the
   acceptance gate this bench asserts. *)
let service_chain ~depth =
  let net = Netlist.create ~hash_consing:false ~fold_constants:false () in
  let a = Netlist.input net "a" in
  let b = Netlist.input net "b" in
  let rec go x n = if n = 0 then x else go (Netlist.gate net Gate.Xor x b) (n - 1) in
  Netlist.mark_output net "o" (go a depth);
  net

let service_wide ~width ~depth =
  let net = Netlist.create ~hash_consing:false ~fold_constants:false () in
  let inputs = Array.init (width + 1) (fun i -> Netlist.input net (Printf.sprintf "i%d" i)) in
  let layer = ref (Array.init width (fun i -> inputs.(i))) in
  for _ = 1 to depth do
    layer :=
      Array.mapi (fun i x -> Netlist.gate net Gate.Xor x inputs.((i + 1) mod (width + 1))) !layer
  done;
  Array.iteri (fun i x -> Netlist.mark_output net (Printf.sprintf "o%d" i) x) !layer;
  net

let service_bench () =
  header "service — persistent server under open-loop load (cross-request packing)";
  let p = if !smoke then smoke_params else Params.test in
  let chain_depth = if !smoke then 12 else 96 in
  let wide_depth = if !smoke then 2 else 6 in
  Format.printf "parameters: %a@." Params.pp p;
  Format.printf "  [generating keys ...]@?";
  let t0 = Unix.gettimeofday () in
  let client, cloud = Client.keygen ~params:p ~seed:7001 () in
  Format.printf " %.1fs@." (Unix.gettimeofday () -. t0);
  let client_id = Client.client_id client in
  let chain_c =
    Pipeline.compile ~optimize:false ~name:"svc-chain" (service_chain ~depth:chain_depth)
  in
  let wide_c =
    Pipeline.compile ~optimize:false ~name:"svc-wide" (service_wide ~width:4 ~depth:wide_depth)
  in
  let rng = Rng.create ~seed:7002 () in
  (* Calibrate the per-request service time once, standalone, to anchor the
     offered-load sweep in multiples of the server's nominal capacity. *)
  let time_one compiled =
    let n = Netlist.input_count compiled.Pipeline.netlist in
    let cts = Client.encrypt_bits client (Array.init n (fun _ -> Rng.bool rng)) in
    let t0 = Unix.gettimeofday () in
    let _ = Server.run Server.Cpu cloud compiled cts in
    Unix.gettimeofday () -. t0
  in
  let t_req = 0.5 *. (time_one chain_c +. time_one wide_c) in
  let nominal_rps = 1.0 /. t_req in
  Format.printf "calibration: %.1f ms/request standalone (nominal %.1f req/s)@." (1000.0 *. t_req)
    nominal_rps;
  (* One server per load level, so the joined stats (latency quantiles,
     batch fill, queue high-water) cover exactly that level. *)
  let run_level ~label ~rate progs =
    let count = Array.length progs in
    let prepared =
      Array.map
        (fun compiled ->
          let n = Netlist.input_count compiled.Pipeline.netlist in
          let ins = Array.init n (fun _ -> Rng.bool rng) in
          (compiled, ins, Client.encrypt_bits client ins))
        progs
    in
    let port = Atomic.make 0 in
    let dom =
      Domain.spawn (fun () ->
          Service.serve
            ~config:{ Service.default_config with port = 0 }
            ~ready:(fun bound -> Atomic.set port bound)
            ())
    in
    while Atomic.get port = 0 do
      Unix.sleepf 0.001
    done;
    let c = Service_client.connect ~port:(Atomic.get port) () in
    Service_client.register c ~client_id cloud;
    let sid = Service_client.open_session c ~client_id p in
    (* Open-loop arrival: request i is due at t0 + i/rate whether or not
       the server is keeping up; [None] is a burst (all due at t0). *)
    let t0 = Unix.gettimeofday () in
    let reqs =
      Array.mapi
        (fun i (compiled, _, cts) ->
          (match rate with
          | Some r ->
            let due = t0 +. (float_of_int i /. r) in
            let slack = due -. Unix.gettimeofday () in
            if slack > 0.0 then Unix.sleepf slack
          | None -> ());
          Service_client.submit c ~session:sid ~name:compiled.Pipeline.prog_name
            ~program:compiled.Pipeline.binary ~inputs:cts)
        prepared
    in
    let outcomes = Array.map (fun req -> Service_client.await ~timeout:300.0 c req) reqs in
    let wall = Unix.gettimeofday () -. t0 in
    Service_client.shutdown c;
    Service_client.close c;
    let stats = Domain.join dom in
    (* Correctness on every request: the reply decrypts to the plaintext
       evaluation AND is ciphertext-bit-exact with a direct per-tenant
       Server.run of the same program on the same inputs. *)
    let ok = ref true in
    Array.iteri
      (fun i outcome ->
        match outcome with
        | Service_client.Failed { code; message } ->
          ok := false;
          Format.printf "  request %d FAILED (%s: %s)@." i
            (Service.string_of_error_code code)
            message
        | Service_client.Done { outputs; _ } ->
          let compiled, ins, cts = prepared.(i) in
          let ref_out, _ = Server.run Server.Cpu cloud compiled cts in
          let expected =
            Array.of_list (List.map snd (Plain_eval.run compiled.Pipeline.netlist ins))
          in
          if outputs <> ref_out then begin
            ok := false;
            Format.printf "  request %d NOT bit-exact with Server.run@." i
          end;
          if Client.decrypt_bits client outputs <> expected then begin
            ok := false;
            Format.printf "  request %d decrypts WRONG@." i
          end)
      outcomes;
    let throughput = float_of_int stats.Service.requests_completed /. wall in
    let lat = stats.Service.latency in
    Format.printf
      "%-12s %3d reqs at %s: %6.2f req/s  p50 %s  p99 %s  fill %.2f (%d launches, peak queue %d)%s@."
      label count
      (match rate with Some r -> Printf.sprintf "%6.2f req/s offered" r | None -> "burst")
      throughput (human_time lat.Quantile.p50) (human_time lat.Quantile.p99)
      stats.Service.batch_fill stats.Service.batch_launches stats.Service.max_queue_depth
      (if !ok then "" else "  [CORRECTNESS FAILURE]");
    let json =
      Json.Obj
        [
          ("label", Json.String label);
          ("offered_rps", match rate with Some r -> Json.Number r | None -> Json.Null);
          ("requests", Json.Number (float_of_int count));
          ("completed", Json.Number (float_of_int stats.Service.requests_completed));
          ("failed", Json.Number (float_of_int stats.Service.requests_failed));
          ("wall_s", Json.Number wall);
          ("throughput_rps", Json.Number throughput);
          ("latency", Quantile.summary_json lat);
          ("batch_launches", Json.Number (float_of_int stats.Service.batch_launches));
          ("batched_gates", Json.Number (float_of_int stats.Service.batched_gates));
          ("batch_fill", Json.Number stats.Service.batch_fill);
          ("max_queue_depth", Json.Number (float_of_int stats.Service.max_queue_depth));
        ]
    in
    (json, stats, throughput, !ok)
  in
  let reqs_per_level = if !smoke then 6 else 16 in
  let mixed n = Array.init n (fun i -> if i mod 2 = 0 then chain_c else wide_c) in
  let sweep = if !smoke then [ 0.5; 2.0 ] else [ 0.25; 0.5; 1.0; 2.0 ] in
  let swept =
    List.map
      (fun mult ->
        run_level
          ~label:(Printf.sprintf "mixed-%.2gx" mult)
          ~rate:(Some (mult *. nominal_rps))
          (mixed reqs_per_level))
      sweep
  in
  (* The acceptance gate: a burst of serial chains from one keyset.  Each
     chain contributes one ready gate per wave, so any fill above 1.0 here
     is cross-request packing and nothing else. *)
  let burst_n = if !smoke then 4 else 8 in
  let burst_json, burst_stats, burst_tp, burst_ok =
    run_level ~label:"chain-burst" ~rate:None (Array.make burst_n chain_c)
  in
  let all_ok = burst_ok && List.for_all (fun (_, _, _, ok) -> ok) swept in
  let p99 = burst_stats.Service.latency.Quantile.p99 in
  let fill_ok = burst_stats.Service.batch_fill > 1.0 in
  let service_ok =
    all_ok && burst_tp > 0.0 && Float.is_finite p99 && fill_ok
    && burst_stats.Service.requests_failed = 0
  in
  Format.printf "@.chain-burst fill %.2f with %d concurrent same-keyset requests: %s@."
    burst_stats.Service.batch_fill burst_n
    (if fill_ok then "cross-request packing confirmed"
     else "NO cross-request packing (gate FAILS)");
  let json =
    Json.Obj
      [
        ("params", Json.String p.Params.name);
        ("smoke", Json.Bool !smoke);
        ("backend", Json.String burst_stats.Service.backend);
        ("calibration_s_per_request", Json.Number t_req);
        ("nominal_rps", Json.Number nominal_rps);
        ("levels", Json.List (List.map (fun (j, _, _, _) -> j) swept @ [ burst_json ]));
        ("burst_batch_fill", Json.Number burst_stats.Service.batch_fill);
        ("burst_concurrency", Json.Number (float_of_int burst_n));
        ("service_ok", Json.Bool service_ok);
      ]
  in
  (* Written in smoke mode too: CI runs `service --smoke` and uploads it. *)
  let path = "BENCH_service.json" in
  Out_channel.with_open_text path (fun oc -> output_string oc (Json.to_string ~indent:true json));
  Format.printf "@.wrote %s@." path;
  (* Correctness and the packing win are deterministic; latency jitter is
     not part of the gate.  Fail the run outright after the artifact is on
     disk for debugging. *)
  if not service_ok then exit 1

(* ------------------------------------------------------------------ *)
(* e2e — streaming compilation at paper scale: an MNIST convolution
   layer and a BERT attention head compiled incrementally (windowed CSE,
   template reuse, binary emitted as construction proceeds), checked
   byte-for-byte and bit-for-bit against the one-shot compiler, with the
   peak-heap comparison the streaming path exists for                    *)
(* ------------------------------------------------------------------ *)

module Tensor = Pytfhe_chiseltorch.Tensor
module Nn = Pytfhe_chiseltorch.Nn
module Attention = Pytfhe_chiseltorch.Attention
module Dtype = Pytfhe_chiseltorch.Dtype

let e2e_bench () =
  header "e2e — streaming compilation: MNIST conv layer + BERT attention head end to end";
  let p = if !smoke then smoke_params else Params.test in
  let window = if !smoke then 64 else 512 in
  (* Workload builders close over fixed weights so the streaming and the
     one-shot compiler lower the identical program. *)
  let conv_builder ~image ~in_ch ~out_ch ~kernel ~dtype =
    let rngw = Rng.create ~seed:31337 () in
    let weights =
      Array.init (out_ch * in_ch * kernel * kernel) (fun _ -> Rng.float rngw -. 0.5)
    in
    let bias = Array.init out_ch (fun _ -> Rng.float rngw -. 0.5) in
    fun net ->
      let x = Tensor.input net "x" dtype [| in_ch; image; image |] in
      let layer =
        Nn.Conv2d { in_ch; out_ch; kernel; stride = 1; padding = 1; weights; bias = Some bias }
      in
      Tensor.output net "y" (Nn.apply ~reuse:true net layer x)
  in
  let attn_builder ~seq_len ~hidden ~dtype =
    let cfg = { Attention.seq_len; hidden } in
    let w = Attention.random_weights (Rng.create ~seed:41414 ()) cfg in
    fun net ->
      let x = Tensor.input net "x" dtype [| seq_len; hidden |] in
      Tensor.output net "y" (Attention.build ~reuse:true net cfg w x)
  in
  let dtype = Dtype.Fixed { width = (if !smoke then 4 else 6); frac = 2 } in
  let workloads =
    [
      ( "mnist_conv",
        conv_builder
          ~image:(if !smoke then 5 else 10)
          ~in_ch:1
          ~out_ch:(if !smoke then 2 else 3)
          ~kernel:3 ~dtype );
      ( "bert_attention",
        attn_builder ~seq_len:(if !smoke then 2 else 4) ~hidden:(if !smoke then 3 else 8) ~dtype );
    ]
  in
  (* Heap cost of a compile.  Two numbers: the chunk-level growth of the
     mapped heap during the run ([heap_words] is monotone between
     compactions, so the post-run sample is the run's high-water mark —
     but chunk-granular, meaningful only at scale), and the word-exact
     live data the compile leaves behind ([live_words] delta with the
     result retained) — the memory a pipelined caller holds while the
     binary executes.  The one-shot compiler retains the whole netlist,
     the full CSE tables and the resident binary; the streaming path
     retains only the report. *)
  let measure_compile f =
    Gc.compact ();
    let s0 = Gc.stat () in
    let t0 = Unix.gettimeofday () in
    let r = f () in
    let wall = Unix.gettimeofday () -. t0 in
    let peak = (Gc.quick_stat ()).Gc.heap_words - s0.Gc.heap_words in
    Gc.full_major ();
    let resident = (Gc.stat ()).Gc.live_words - s0.Gc.live_words in
    (r, wall, max 0 peak, max 0 resident)
  in
  let read_file path =
    In_channel.with_open_bin path (fun ic -> In_channel.input_all ic) |> Bytes.of_string
  in
  let gpu = Cost_model.gpu_a5000 in
  let rows =
    List.map
      (fun (name, builder) ->
        Format.printf "@.%s:@." name;
        (* (a) Streamed, windowed, straight to a file — the bounded-memory
           path — measured first so its heap numbers cannot inherit chunks
           mapped by the one-shot run. *)
        let path = Filename.temp_file "pytfhe_e2e_" ".bin" in
        let report, stream_wall, stream_peak, stream_res =
          measure_compile (fun () ->
              Pipeline.compile_stream_to_file ~window ~name ~path builder)
        in
        Format.printf
          "  streamed:   %d gates, %d waves, %d bytes in %s (window %d, CSE peak %d, evicted %d)@."
          report.Pipeline.gates report.Pipeline.depth report.Pipeline.bytes_emitted
          (human_time stream_wall) window report.Pipeline.cse_peak report.Pipeline.cse_evicted;
        (* (b) One-shot: materialize the netlist, then compile. *)
        let compiled, oneshot_wall, oneshot_peak, oneshot_res =
          measure_compile (fun () ->
              let net = Netlist.create () in
              builder net;
              Pipeline.compile ~optimize:false ~name net)
        in
        Format.printf "  one-shot:   %d bootstraps, %d bytes in %s@."
          compiled.Pipeline.stats.Stats.bootstraps
          (Bytes.length compiled.Pipeline.binary)
          (human_time oneshot_wall);
        let heap_ratio = float_of_int stream_res /. float_of_int (max 1 oneshot_res) in
        let heap_ok = stream_res < oneshot_res in
        Format.printf
          "  heap:       %d KW resident streamed vs %d KW one-shot (%.3fx; mapped-chunk peak %d vs %d KW)%s@."
          (stream_res / 1024) (oneshot_res / 1024) heap_ratio (stream_peak / 1024)
          (oneshot_peak / 1024)
          (if heap_ok then "" else "  (streaming retained MORE heap!)");
        (* (c) An unwindowed stream must reproduce the one-shot binary
           byte for byte (same construction-time optimizations, no
           synthesis on either side). *)
        let unwindowed, _ = Pipeline.compile_stream_to_bytes ~name builder in
        let byte_identical = Bytes.equal unwindowed compiled.Pipeline.binary in
        (* (d) The windowed stream may duplicate evicted subexpressions —
           more gates — but must stay functionally identical. *)
        let streamed = read_file path in
        Sys.remove path;
        let n_in = Netlist.input_count compiled.Pipeline.netlist in
        let rngi = Rng.create ~seed:515 () in
        let ins = Array.init n_in (fun _ -> Rng.bool rngi) in
        let sbits = Plain_eval.run_binary streamed ins in
        let expected = Plain_eval.run compiled.Pipeline.netlist ins in
        let plain_match =
          List.for_all2 (fun (_, e) g -> e = g) expected (Array.to_list sbits)
        in
        Format.printf "  unwindowed stream byte-identical: %b; windowed stream plain-exact: %b@."
          byte_identical plain_match;
        (* (e) The incremental schedule feeds the GPU cost model directly:
           per-gate cuFHE launches vs one fused CUDA-Graph batch per wave
           over the streamed waves. *)
        let sched = report.Pipeline.stream_schedule in
        let cufhe = Sched_gpu.simulate_cufhe gpu ~cpu:cost sched in
        let graph = Sched_gpu.simulate_pytfhe gpu ~cpu:cost sched in
        let gpu_speedup =
          cufhe.Sched_gpu.makespan /. Float.max graph.Sched_gpu.makespan 1e-12
        in
        Format.printf "  Sched_gpu on the streamed schedule: per-gate %s vs CUDA-Graph %s (%.1fx)@."
          (human_time cufhe.Sched_gpu.makespan)
          (human_time graph.Sched_gpu.makespan)
          gpu_speedup;
        let json =
          Json.Obj
            [
              ("name", Json.String name);
              ("window", Json.Number (float_of_int window));
              ("gates", Json.Number (float_of_int report.Pipeline.gates));
              ("bootstraps", Json.Number (float_of_int report.Pipeline.bootstraps));
              ("depth", Json.Number (float_of_int report.Pipeline.depth));
              ("max_width", Json.Number (float_of_int report.Pipeline.max_width));
              ("node_count", Json.Number (float_of_int report.Pipeline.node_count));
              ("bytes_emitted", Json.Number (float_of_int report.Pipeline.bytes_emitted));
              ("cse_peak", Json.Number (float_of_int report.Pipeline.cse_peak));
              ("cse_evicted", Json.Number (float_of_int report.Pipeline.cse_evicted));
              ("stream_wall_s", Json.Number stream_wall);
              ("stream_peak_heap_words", Json.Number (float_of_int stream_peak));
              ("stream_resident_heap_words", Json.Number (float_of_int stream_res));
              ( "oneshot_bootstraps",
                Json.Number (float_of_int compiled.Pipeline.stats.Stats.bootstraps) );
              ("oneshot_binary_bytes", Json.Number (float_of_int (Bytes.length compiled.Pipeline.binary)));
              ("oneshot_wall_s", Json.Number oneshot_wall);
              ("oneshot_peak_heap_words", Json.Number (float_of_int oneshot_peak));
              ("oneshot_resident_heap_words", Json.Number (float_of_int oneshot_res));
              ("heap_ratio", Json.Number heap_ratio);
              ("heap_ok", Json.Bool heap_ok);
              ("byte_identical", Json.Bool byte_identical);
              ("plain_match", Json.Bool plain_match);
              ( "gpu_model",
                Json.Obj
                  [
                    ("cufhe_makespan_s", Json.Number cufhe.Sched_gpu.makespan);
                    ("cuda_graph_makespan_s", Json.Number graph.Sched_gpu.makespan);
                    ("graph_speedup", Json.Number gpu_speedup);
                  ] );
            ]
        in
        (name, json, byte_identical && plain_match, heap_ok))
      workloads
  in
  (* (f) End to end under real ciphertexts: scaled-down instances of both
     shapes, compiled through the windowed streaming path and executed by
     the streaming CPU executor (no netlist ever materialized server
     side), decrypted and checked against the plaintext reference. *)
  Format.printf "@.encrypted end-to-end (%a):@." Params.pp p;
  Format.printf "  [generating keys ...]@?";
  let t0 = Unix.gettimeofday () in
  let client, cloud = Client.keygen ~params:p ~seed:6464 () in
  Format.printf " %.1fs@." (Unix.gettimeofday () -. t0);
  let enc_dtype = Dtype.Fixed { width = 4; frac = 2 } in
  let enc_workloads =
    [
      ("mnist_conv", conv_builder ~image:3 ~in_ch:1 ~out_ch:1 ~kernel:3 ~dtype:enc_dtype);
      ("bert_attention", attn_builder ~seq_len:2 ~hidden:2 ~dtype:enc_dtype);
    ]
  in
  let source_of_bytes ?(chunk = 4096) b =
    let pos = ref 0 in
    fun () ->
      if !pos >= Bytes.length b then None
      else begin
        let len = min chunk (Bytes.length b - !pos) in
        let s = Bytes.sub b !pos len in
        pos := !pos + len;
        Some s
      end
  in
  let module Cpu = (val Executor.cpu) in
  let enc_rows =
    List.map
      (fun (name, builder) ->
        let bytes, report =
          Pipeline.compile_stream_to_bytes ~window:32 ~name:(name ^ "_enc") builder
        in
        let net = Netlist.create () in
        builder net;
        let n_in = Netlist.input_count net in
        let rng = Rng.create ~seed:727 () in
        let ins = Array.init n_in (fun _ -> Rng.bool rng) in
        let cts = Client.encrypt_bits client ins in
        let t0 = Unix.gettimeofday () in
        let outs, stats = Cpu.run_stream cloud (source_of_bytes bytes) cts in
        let wall = Unix.gettimeofday () -. t0 in
        let bits = Client.decrypt_bits client outs in
        let expected = Plain_eval.run net ins in
        let enc_match = List.for_all2 (fun (_, e) g -> e = g) expected (Array.to_list bits) in
        Format.printf "  %-16s %4d bootstraps in %8s: %s@." name
          stats.Executor.bootstraps_executed (human_time wall)
          (if enc_match then "decrypts to the plaintext reference"
           else "DECRYPTS WRONG");
        let json =
          Json.Obj
            [
              ("name", Json.String name);
              ("backend", Json.String "cpu-stream");
              ("gates", Json.Number (float_of_int report.Pipeline.gates));
              ( "bootstraps_executed",
                Json.Number (float_of_int stats.Executor.bootstraps_executed) );
              ("wall_s", Json.Number wall);
              ("match", Json.Bool enc_match);
            ]
        in
        (json, enc_match))
      enc_workloads
  in
  let compile_ok = List.for_all (fun (_, _, ok, _) -> ok) rows in
  let heap_ok = List.for_all (fun (_, _, _, ok) -> ok) rows in
  let enc_ok = List.for_all (fun (_, ok) -> ok) enc_rows in
  let e2e_ok = compile_ok && heap_ok && enc_ok in
  Format.printf "@.streaming == one-shot: %b; heap bounded: %b; encrypted end-to-end: %b@."
    compile_ok heap_ok enc_ok;
  let json =
    Json.Obj
      [
        ("params", Json.String p.Params.name);
        ("smoke", Json.Bool !smoke);
        ("window", Json.Number (float_of_int window));
        ("workloads", Json.List (List.map (fun (_, j, _, _) -> j) rows));
        ("encrypted", Json.List (List.map fst enc_rows));
        ("compile_ok", Json.Bool compile_ok);
        ("heap_ok", Json.Bool heap_ok);
        ("encrypted_ok", Json.Bool enc_ok);
        ("e2e_ok", Json.Bool e2e_ok);
      ]
  in
  (* Written in smoke mode too: CI runs `e2e --smoke` and uploads it. *)
  let path = "BENCH_e2e.json" in
  Out_channel.with_open_text path (fun oc -> output_string oc (Json.to_string ~indent:true json));
  Format.printf "@.wrote %s@." path;
  (* Byte identity, plain-domain equality and encrypted correctness are
     deterministic — a mismatch is a compiler bug, not jitter — so it
     fails the bench run outright (after the artifact is on disk). *)
  if not e2e_ok then exit 1

let all_experiments =
  [
    ("fig7", fig7); ("fig8", fig8); ("fig9", fig9); ("fig10", fig10); ("fig11", fig11);
    ("fig12", fig12); ("fig13", fig13); ("fig14", fig14); ("table4", table4); ("ablation", ablation);
    ("params", params_explorer); ("micro", micro); ("ntt", ntt_bench); ("par", par);
    ("dist", dist); ("obs", obs_bench); ("batch", batch_bench); ("lut", lut_bench);
    ("service", service_bench); ("e2e", e2e_bench);
  ]

let () =
  (* In a process spawned by Dist_eval this serves gates and never returns. *)
  Dist_eval.worker_entry ();
  let args = List.tl (Array.to_list Sys.argv) in
  quick := List.mem "--quick" args;
  smoke := List.mem "--smoke" args;
  let targets = List.filter (fun a -> a <> "--quick" && a <> "--smoke") args in
  let targets = if targets = [] || List.mem "all" targets then List.map fst all_experiments else targets in
  Format.printf "PyTFHE evaluation harness — cost model: %a@." Cost_model.pp_cpu cost;
  List.iter
    (fun t ->
      match List.assoc_opt t all_experiments with
      | Some f -> f ()
      | None -> Format.printf "unknown experiment %S (known: %s)@." t (String.concat ", " (List.map fst all_experiments)))
    targets
