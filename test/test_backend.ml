module Rng = Pytfhe_util.Rng
module Netlist = Pytfhe_circuit.Netlist
module Gate = Pytfhe_circuit.Gate
module Levelize = Pytfhe_circuit.Levelize
module Binary = Pytfhe_circuit.Binary
open Pytfhe_backend

(* Synthetic DAG shapes for the scheduler models (shared with test_dist). *)

let wide_netlist = Gen_circuit.wide
let chain_netlist = Gen_circuit.chain

(* ------------------------------------------------------------------ *)
(* Plain evaluation                                                    *)
(* ------------------------------------------------------------------ *)

let test_plain_run_binary_matches () =
  let net = wide_netlist ~width:4 ~depth:3 in
  let bytes = Binary.assemble net in
  let rng = Rng.create ~seed:1 () in
  for _ = 1 to 10 do
    let ins = Array.init 5 (fun _ -> Rng.bool rng) in
    let expected = List.map snd (Plain_eval.run net ins) in
    let got = Array.to_list (Plain_eval.run_binary bytes ins) in
    Alcotest.(check (list bool)) "binary = netlist" expected got
  done

let test_plain_run_named () =
  let net = Netlist.create () in
  let a = Netlist.input net "a" in
  let b = Netlist.input net "b" in
  Netlist.mark_output net "o" (Netlist.gate net Gate.And a b);
  let result = Plain_eval.run_named net [ ("b", true); ("a", true) ] in
  Alcotest.(check (list (pair string bool))) "named eval" [ ("o", true) ] result;
  Alcotest.(check bool) "missing input raises" true
    (try
       ignore (Plain_eval.run_named net [ ("a", true) ]);
       false
     with Not_found -> true)


let test_vcd_export () =
  let net = Netlist.create () in
  let a = Netlist.input net "a" in
  let b = Netlist.input net "b" in
  Netlist.mark_output net "sum" (Netlist.gate net Gate.Xor a b);
  let vcd =
    Vcd.of_evaluation net [ [| false; false |]; [| true; false |]; [| true; true |]; [| true; true |] ]
  in
  let contains fragment =
    let re = Str.regexp_string fragment in
    try ignore (Str.search_forward re vcd 0); true with Not_found -> false
  in
  Alcotest.(check bool) "header" true (contains "$enddefinitions");
  Alcotest.(check bool) "declares a" true (contains "$var wire 1 ! a $end");
  Alcotest.(check bool) "declares sum" true (contains "$var wire 1 # sum $end");
  Alcotest.(check bool) "timestep 0" true (contains "#0");
  Alcotest.(check bool) "timestep 1" true (contains "#1");
  (* the last vector repeats the previous one: no #3 marker *)
  Alcotest.(check bool) "no redundant timestep" false (contains "#3");
  Alcotest.(check bool) "rejects empty" true
    (try ignore (Vcd.of_evaluation net []); false with Invalid_argument _ -> true)

let test_vcd_identifiers_scale () =
  (* more than 94 signals forces multi-character identifiers *)
  let net = Netlist.create () in
  let inputs = Array.init 100 (fun i -> Netlist.input net (Printf.sprintf "i%d" i)) in
  Netlist.mark_output net "o" (Netlist.gate net Gate.Or inputs.(0) inputs.(99));
  let vcd = Vcd.of_evaluation net [ Array.make 100 false ] in
  Alcotest.(check bool) "renders" true (String.length vcd > 0)

(* ------------------------------------------------------------------ *)
(* Cost model                                                          *)
(* ------------------------------------------------------------------ *)

let test_cost_model_constants () =
  let c = Cost_model.paper_cpu in
  Alcotest.(check bool) "gate time ~15ms" true
    (c.Cost_model.gate_time > 0.010 && c.Cost_model.gate_time < 0.020);
  (* the paper's 0.094 % communication share *)
  let comm_share = c.Cost_model.comm_time /. c.Cost_model.gate_time in
  Alcotest.(check bool) "comm below 0.2%" true (comm_share < 0.002);
  Alcotest.(check bool) "fractions are a breakdown" true
    (c.Cost_model.blind_rotation_fraction +. c.Cost_model.key_switch_fraction <= 1.0);
  Alcotest.(check bool) "blind rotation dominates" true
    (c.Cost_model.blind_rotation_fraction > c.Cost_model.key_switch_fraction);
  Alcotest.(check int) "18 workers per node" 18 c.Cost_model.workers_per_node;
  Alcotest.(check bool) "throughput ~67 gates/s" true
    (let t = Cost_model.single_core_throughput c in
     t > 50.0 && t < 100.0)

let test_cost_model_calibration () =
  let c = Cost_model.calibrated_cpu ~measured_gate_time:0.123 in
  Alcotest.(check (float 1e-9)) "gate time replaced" 0.123 c.Cost_model.gate_time;
  Alcotest.(check int) "other fields preserved" 18 c.Cost_model.workers_per_node

let test_gpu_models () =
  Alcotest.(check bool) "4090 has more slots" true
    (Cost_model.gpu_4090.Cost_model.slots > Cost_model.gpu_a5000.Cost_model.slots)

(* ------------------------------------------------------------------ *)
(* Distributed CPU scheduler                                           *)
(* ------------------------------------------------------------------ *)

let cheap_cost = { Cost_model.paper_cpu with Cost_model.startup_time = 0.0 }

let test_sched_cpu_wide_scales () =
  let sched = Levelize.run (wide_netlist ~width:2000 ~depth:20) in
  let r1 = Sched_cpu.simulate { Sched_cpu.nodes = 1; cost = cheap_cost } sched in
  let r4 = Sched_cpu.simulate { Sched_cpu.nodes = 4; cost = cheap_cost } sched in
  Alcotest.(check int) "workers 1 node" 18 r1.Sched_cpu.workers;
  Alcotest.(check int) "workers 4 nodes" 72 r4.Sched_cpu.workers;
  Alcotest.(check bool) "near-ideal on one node" true (r1.Sched_cpu.speedup > 14.0);
  Alcotest.(check bool) "below ideal" true (r1.Sched_cpu.speedup <= 18.0);
  Alcotest.(check bool) "4 nodes beat 1" true (r4.Sched_cpu.speedup > r1.Sched_cpu.speedup);
  Alcotest.(check bool) "4 nodes below ideal (dispatch bound)" true (r4.Sched_cpu.speedup < 72.0)

let test_sched_cpu_serial_does_not_scale () =
  let sched = Levelize.run (chain_netlist ~depth:500) in
  let r = Sched_cpu.simulate { Sched_cpu.nodes = 4; cost = cheap_cost } sched in
  Alcotest.(check bool) "serial chain speedup ~1" true (r.Sched_cpu.speedup < 1.2)

let test_sched_cpu_makespan_decomposition () =
  let sched = Levelize.run (wide_netlist ~width:100 ~depth:5) in
  let r = Sched_cpu.simulate { Sched_cpu.nodes = 1; cost = Cost_model.paper_cpu } sched in
  let total =
    r.Sched_cpu.compute_time +. r.Sched_cpu.dispatch_time +. r.Sched_cpu.sync_time
    +. r.Sched_cpu.startup_time
  in
  Alcotest.(check (float 1e-9)) "makespan decomposes" r.Sched_cpu.makespan total

let test_sched_cpu_run_executes () =
  let net = wide_netlist ~width:8 ~depth:2 in
  let rng = Rng.create ~seed:3 () in
  let ins = Array.init 9 (fun _ -> Rng.bool rng) in
  let outs, result = Sched_cpu.run { Sched_cpu.nodes = 1; cost = cheap_cost } net ins in
  Alcotest.(check (list bool)) "values match plain eval"
    (List.map snd (Plain_eval.run net ins))
    (List.map snd outs);
  Alcotest.(check bool) "simulated time positive" true (result.Sched_cpu.makespan > 0.0)

(* ------------------------------------------------------------------ *)
(* GPU scheduler                                                       *)
(* ------------------------------------------------------------------ *)

let test_gpu_cufhe_is_per_gate () =
  let sched = Levelize.run (wide_netlist ~width:10 ~depth:10) in
  let g = Cost_model.gpu_a5000 in
  let r = Sched_gpu.simulate_cufhe g ~cpu:Cost_model.paper_cpu sched in
  let per_gate =
    g.Cost_model.launch_time +. g.Cost_model.h2d_time +. g.Cost_model.kernel_time
    +. g.Cost_model.d2h_time
  in
  Alcotest.(check (float 1e-9)) "serialized" (100.0 *. per_gate) r.Sched_gpu.makespan

let test_gpu_pytfhe_beats_cufhe_on_wide () =
  let sched = Levelize.run (wide_netlist ~width:1000 ~depth:30) in
  let speedup = Sched_gpu.speedup_over_cufhe Cost_model.gpu_a5000 ~cpu:Cost_model.paper_cpu sched in
  Alcotest.(check bool) (Printf.sprintf "speedup %.1f > 30" speedup) true (speedup > 30.0);
  Alcotest.(check bool) "bounded by slots+overhead" true (speedup < 80.0)

let test_gpu_pytfhe_modest_on_serial () =
  let sched = Levelize.run (chain_netlist ~depth:200) in
  let speedup = Sched_gpu.speedup_over_cufhe Cost_model.gpu_a5000 ~cpu:Cost_model.paper_cpu sched in
  Alcotest.(check bool) "little gain on serial code" true (speedup < 2.0)

let test_gpu_4090_faster_than_a5000 () =
  let sched = Levelize.run (wide_netlist ~width:2000 ~depth:10) in
  let a = Sched_gpu.simulate_pytfhe Cost_model.gpu_a5000 ~cpu:Cost_model.paper_cpu sched in
  let b = Sched_gpu.simulate_pytfhe Cost_model.gpu_4090 ~cpu:Cost_model.paper_cpu sched in
  Alcotest.(check bool) "more SMs, shorter makespan" true
    (b.Sched_gpu.makespan < a.Sched_gpu.makespan)

let test_gpu_timelines () =
  let sched = Levelize.run (wide_netlist ~width:2 ~depth:2) in
  let c = Sched_gpu.simulate_cufhe Cost_model.gpu_a5000 ~cpu:Cost_model.paper_cpu sched in
  Alcotest.(check int) "3 segments per gate" 12 (List.length c.Sched_gpu.timeline);
  let p = Sched_gpu.simulate_pytfhe Cost_model.gpu_a5000 ~cpu:Cost_model.paper_cpu sched in
  Alcotest.(check bool) "pytfhe timeline present" true (List.length p.Sched_gpu.timeline > 0);
  List.iter
    (fun seg ->
      Alcotest.(check bool) "segments well formed" true
        (seg.Sched_gpu.t_end >= seg.Sched_gpu.t_start))
    (c.Sched_gpu.timeline @ p.Sched_gpu.timeline)

let test_gpu_batches_of_splits_oversized_waves () =
  (* Regression: a single wave wider than [max_batch_nodes] used to be
     emitted as one oversized batch, silently violating the memory cap. *)
  let sched = Levelize.run (wide_netlist ~width:25 ~depth:3) in
  let bound = 10 in
  let batches = Sched_gpu.batches_of ~max_batch_nodes:bound sched in
  List.iter
    (fun widths ->
      Alcotest.(check bool) "batch within memory bound" true
        (List.fold_left ( + ) 0 widths <= bound))
    batches;
  Alcotest.(check int) "total nodes preserved" sched.Levelize.total_bootstraps
    (List.fold_left (fun acc ws -> acc + List.fold_left ( + ) 0 ws) 0 batches);
  (* A bound the waves fit under exactly reproduces the greedy packing. *)
  let loose = Sched_gpu.batches_of ~max_batch_nodes:1_000 sched in
  Alcotest.(check int) "wide bound still covers every node" sched.Levelize.total_bootstraps
    (List.fold_left (fun acc ws -> acc + List.fold_left ( + ) 0 ws) 0 loose);
  Alcotest.(check bool) "rejects bound < 1" true
    (try
       ignore (Sched_gpu.batches_of ~max_batch_nodes:0 sched);
       false
     with Invalid_argument _ -> true)

let test_gpu_batching_respects_memory_bound () =
  (* Exaggerate the per-launch overhead so the batching effect dominates:
     fewer, larger CUDA graphs amortize launches. *)
  let gpu = { Cost_model.gpu_a5000 with Cost_model.launch_time = 50e-3; graph_node_time = 0.0 } in
  let sched = Levelize.run (wide_netlist ~width:100 ~depth:10) in
  let small = Sched_gpu.simulate_pytfhe ~max_batch_nodes:100 gpu ~cpu:Cost_model.paper_cpu sched in
  let large = Sched_gpu.simulate_pytfhe ~max_batch_nodes:1_000_000 gpu ~cpu:Cost_model.paper_cpu sched in
  Alcotest.(check bool) "one graph pays one launch" true
    (small.Sched_gpu.makespan > large.Sched_gpu.makespan +. 0.1)


let test_sched_asap_beats_barriers () =
  (* ASAP removes the wave barrier, so it can never be slower than the
     level-synchronous Algorithm 1 on the same DAG (same costs). *)
  let net = wide_netlist ~width:300 ~depth:20 in
  let config = { Sched_cpu.nodes = 1; cost = cheap_cost } in
  let barrier = Sched_cpu.simulate config (Levelize.run net) in
  let asap = Sched_cpu.simulate_asap config net in
  Alcotest.(check bool) "asap <= barrier" true
    (asap.Sched_cpu.makespan <= barrier.Sched_cpu.makespan +. 1e-9);
  Alcotest.(check bool) "same work" true
    (Float.abs (asap.Sched_cpu.single_thread_time -. barrier.Sched_cpu.single_thread_time) < 1e-9)

let test_sched_asap_serial_chain_is_serial () =
  let depth = 100 in
  let net = chain_netlist ~depth in
  let config = { Sched_cpu.nodes = 4; cost = cheap_cost } in
  let r = Sched_cpu.simulate_asap config net in
  (* A chain cannot run faster than depth x gate time. *)
  let lower = float_of_int depth *. cheap_cost.Cost_model.gate_time in
  Alcotest.(check bool) "chain lower bound respected" true (r.Sched_cpu.makespan >= lower)

let test_gpu_batched_sits_between () =
  let net = wide_netlist ~width:500 ~depth:20 in
  let sched = Levelize.run net in
  let g = Cost_model.gpu_a5000 in
  let per_gate = Sched_gpu.simulate_cufhe g ~cpu:Cost_model.paper_cpu sched in
  let batched = Sched_gpu.simulate_cufhe_batched g ~cpu:Cost_model.paper_cpu net in
  let graphs = Sched_gpu.simulate_pytfhe g ~cpu:Cost_model.paper_cpu sched in
  Alcotest.(check bool) "batched beats per-gate" true
    (batched.Sched_gpu.makespan < per_gate.Sched_gpu.makespan);
  Alcotest.(check bool) "graphs beat batched" true
    (graphs.Sched_gpu.makespan < batched.Sched_gpu.makespan)


let test_run_binary_matches_netlist () =
  let net = wide_netlist ~width:6 ~depth:4 in
  let bytes = Binary.assemble net in
  let rng = Rng.create ~seed:77 () in
  for _ = 1 to 10 do
    let ins = Array.init 7 (fun _ -> Rng.bool rng) in
    let expected = List.map snd (Plain_eval.run net ins) in
    Alcotest.(check (list bool)) "stream = netlist" expected
      (Array.to_list (Plain_eval.run_binary bytes ins))
  done

let test_run_binary_handles_constants () =
  let net = Netlist.create ~fold_constants:false () in
  let a = Netlist.input net "a" in
  let t = Netlist.const net true in
  Netlist.mark_output net "o" (Netlist.gate net Gate.Xor a t);
  let bytes = Binary.assemble net in
  Alcotest.(check (array bool)) "xor with materialised constant" [| false |]
    (Plain_eval.run_binary bytes [| true |]);
  Alcotest.(check (array bool)) "other polarity" [| true |]
    (Plain_eval.run_binary bytes [| false |])

let keys = lazy (Pytfhe_tfhe.Gates.key_gen (Rng.create ~seed:909 ()) Pytfhe_tfhe.Params.test)

(* The three readers of a program.  The cursor is walked with dummy
   outputs, so nothing bootstraps: only its reading is under test. *)
let readers =
  let dummy = { Pytfhe_tfhe.Lwe.a = [||]; b = 0 } in
  let walk bytes ins =
    let inputs = Array.map (fun _ -> dummy) ins in
    let c = Wave.cursor (snd (Lazy.force keys)) (Wave.Bytes bytes) inputs in
    while not (Wave.finished c) do
      let outs = Array.fold_left (fun n j -> n + Wave.outputs j) 0 (Wave.jobs c) in
      Wave.deliver c (Array.make outs dummy)
    done
  in
  [
    ("Binary.parse", fun bytes _ -> ignore (Binary.parse bytes));
    ("Plain_eval.run_binary", fun bytes ins -> ignore (Plain_eval.run_binary bytes ins));
    ("Wave.cursor", walk);
  ]

let test_run_binary_rejects_malformed () =
  let reject label ins bytes =
    List.iter
      (fun (reader, run) ->
        Alcotest.(check bool) (label ^ ": " ^ reader) true
          (try run bytes ins; false with Pytfhe_util.Wire.Corrupt _ -> true))
      readers
  in
  let reject0 label bytes = reject label [||] bytes in
  reject0 "empty" (Bytes.create 0);
  reject0 "truncated" (Bytes.create 8);
  (* valid instructions but no header first: craft by assembling then
     swapping the header with the first input *)
  let net = Netlist.create () in
  let a = Netlist.input net "a" in
  Netlist.mark_output net "o" a;
  let bytes = Binary.assemble net in
  let swapped = Bytes.copy bytes in
  Bytes.blit bytes 0 swapped 16 16;
  Bytes.blit bytes 16 swapped 0 16;
  reject "header not first" [| true |] swapped;
  (* instruction stream cut mid-instruction: length no longer a multiple
     of the 16-byte instruction size *)
  reject "truncated mid-instruction" [| true |] (Bytes.sub bytes 0 (Bytes.length bytes - 8));
  let all_ones = 0x3FFFFFFFFFFFFFFF in
  (* tag 0xD is not a gate opcode (gates are 1-11), a LUT record (0xC) nor
     a declaration *)
  reject0 "unknown instruction tag" (Gen_circuit.craft [ (0, 0, 0x0); (1, 2, 0xD) ]);
  (* a gate whose fan-in points past every assigned index *)
  reject "forward gate reference" [| true |]
    (Gen_circuit.craft [ (0, 1, 0x0); (all_ones, 1, 0xF); (5, 1, 6) ]);
  (* more gates than the header declared *)
  reject "gate count overflow" [| true |]
    (Gen_circuit.craft [ (0, 0, 0x0); (all_ones, 1, 0xF); (1, 1, 6) ]);
  (* duplicate header mid-stream *)
  reject "duplicate header" [| true |]
    (Gen_circuit.craft [ (0, 1, 0x0); (all_ones, 1, 0xF); (0, 1, 0x0); (1, 1, 6) ]);
  (* a NOT whose second field names an unassigned index *)
  reject "NOT over an unassigned second operand" [| true |]
    (Gen_circuit.craft [ (0, 1, 0x0); (all_ones, 1, 0xF); (1, 99, 7); (all_ones, 2, 0x3) ])

(* Words of [m] that decode to input declarations, wherever they sit. *)
let input_decls m =
  let n = ref 0 in
  for i = 0 to (Bytes.length m / 16) - 1 do
    match Binary.reader (Binary.bytes_source (Bytes.sub m (16 * i) 16)) () with
    | Some (Binary.Input_decl _) -> incr n
    | _ | (exception Pytfhe_util.Wire.Corrupt _) -> ()
  done;
  !n

(* One verdict per program: a single mutation of an assembled LUT program
   (one flipped bit, one random byte, or two instructions swapped after
   the header) is accepted by all three readers or refused by all three,
   only ever with [Wire.Corrupt]; an accepted program's streamed scan
   computes what its parsed netlist computes.  Each case gets as many
   inputs as it has input-declaration words, so an input-count error
   cannot stand in for the program's verdict. *)
let qcheck_mutation_verdicts =
  QCheck.Test.make ~name:"mutated programs: one verdict, only Wire.Corrupt" ~count:500
    QCheck.(pair (int_range 0 100_000) (int_range 0 100_000))
    (fun (s1, s2) ->
      let rng = Rng.create ~seed:s2 () in
      let m = Binary.assemble (Gen_circuit.random_lut ~seed:s1 ()) in
      let len = Bytes.length m in
      (match Rng.int rng 3 with
      | 0 ->
        let bit = Rng.int rng (8 * len) in
        Bytes.set_uint8 m (bit / 8) (Bytes.get_uint8 m (bit / 8) lxor (1 lsl (bit mod 8)))
      | 1 -> Bytes.set_uint8 m (Rng.int rng len) (Rng.int rng 256)
      | _ ->
        let i = 1 + Rng.int rng ((len / 16) - 1) and j = 1 + Rng.int rng ((len / 16) - 1) in
        let word = Bytes.sub m (16 * i) 16 in
        Bytes.blit m (16 * j) m (16 * i) 16;
        Bytes.blit word 0 m (16 * j) 16);
      let ins = Array.init (input_decls m) (fun _ -> Rng.bool rng) in
      let accepts (_, run) =
        match run m ins with () -> true | exception Pytfhe_util.Wire.Corrupt _ -> false
      in
      match List.map accepts readers with
      | [ a; b; c ] when a = b && b = c ->
        (not a)
        || Plain_eval.run_binary m ins
           = Array.of_list (List.map snd (Plain_eval.run (Binary.parse m) ins))
      | _ -> QCheck.Test.fail_report "the readers disagree")

(* Structurally corrupt LUT records (tag 0xC).  Every case must surface as
   [Wire.Corrupt] — a graceful rejection of a hostile stream — and never as
   an assertion failure, out-of-bounds access or silent wrong answer.  The
   B-field layout under test: arity in bits 0-1, table in 2-9, second and
   third operands in 10-35 and 36-61. *)
let test_run_binary_rejects_malformed_lut () =
  let reject_corrupt label ins bytes =
    Alcotest.(check bool) label true
      (try
         ignore (Plain_eval.run_binary bytes ins);
         false
       with Pytfhe_util.Wire.Corrupt _ -> true)
  in
  (* index 0 is the reserved null slot, so the first input lands at 1 *)
  let header_and_input = [ (0, 1, 0x0); (0x3FFFFFFFFFFFFFFF, 1, 0xF) ] in
  let lut b = Gen_circuit.craft (header_and_input @ [ (1, b, 0xC) ]) in
  (* arity field 0: no such LUT record *)
  reject_corrupt "lut arity 0" [| true |] (lut 0);
  (* arity 1 admits 4 tables; 0b100 needs arity 2 *)
  reject_corrupt "lut table too wide for arity" [| true |] (lut (1 lor (0b100 lsl 2)));
  (* arity 1 must leave both extra operand fields zero *)
  reject_corrupt "lut1 reserved in1 bits set" [| true |]
    (lut (1 lor (0b10 lsl 2) lor (1 lsl 10)));
  reject_corrupt "lut1 reserved in2 bits set" [| true |]
    (lut (1 lor (0b10 lsl 2) lor (1 lsl 36)));
  (* arity 2 must leave the third operand field zero *)
  reject_corrupt "lut2 reserved in2 bits set" [| true |]
    (lut (2 lor (0b0110 lsl 2) lor (1 lsl 36)));
  (* structurally valid lut2, but both operands name the primary input —
     a classic value, not a lutdom one: the executor must refuse rather
     than misinterpret the encoding *)
  reject_corrupt "lut2 operand not lutdom-encoded" [| true |]
    (lut (2 lor (0b0110 lsl 2) lor (1 lsl 10)));
  (* the same invariant through the netlist parser, with two distinct
     classic operands (duplicates would canonicalise to arity 1):
     Binary.parse reports corruption, not Invalid_argument *)
  let two_input_lut2 =
    Gen_circuit.craft
      [ (0, 1, 0x0); (0x3FFFFFFFFFFFFFFF, 1, 0xF); (0x3FFFFFFFFFFFFFFF, 2, 0xF);
        (1, 2 lor (0b0110 lsl 2) lor (2 lsl 10), 0xC) ]
  in
  reject_corrupt "lut2 over two classic inputs" [| true; false |] two_input_lut2;
  Alcotest.(check bool) "Binary.parse lutdom invariant" true
    (try
       ignore (Pytfhe_circuit.Binary.parse two_input_lut2);
       false
     with Pytfhe_util.Wire.Corrupt _ -> true)

(* ------------------------------------------------------------------ *)
(* Real encrypted execution                                            *)
(* ------------------------------------------------------------------ *)

let test_run_binary_encrypted () =
  let sk, ck = Lazy.force keys in
  let net = wide_netlist ~width:3 ~depth:2 in
  let bytes = Binary.assemble net in
  let rng = Rng.create ~seed:78 () in
  let ins = Array.init 4 (fun _ -> Rng.bool rng) in
  let cts = Array.map (Pytfhe_tfhe.Gates.encrypt_bit rng sk) ins in
  let outs, _ = Executor.run Executor.Cpu ck (Wave.Bytes bytes) cts in
  let expected = Plain_eval.run_binary bytes ins in
  Alcotest.(check (array bool)) "encrypted stream execution" expected
    (Array.map (Pytfhe_tfhe.Gates.decrypt_bit sk) outs)


let test_tfhe_eval_full_adder () =
  let sk, ck = Lazy.force keys in
  let net = Netlist.create () in
  let a = Netlist.input net "a" in
  let b = Netlist.input net "b" in
  let cin = Netlist.input net "cin" in
  let axb = Netlist.gate net Gate.Xor a b in
  Netlist.mark_output net "sum" (Netlist.gate net Gate.Xor axb cin);
  let c1 = Netlist.gate net Gate.And a b in
  let c2 = Netlist.gate net Gate.And axb cin in
  Netlist.mark_output net "cout" (Netlist.gate net Gate.Or c1 c2);
  let rng = Rng.create ~seed:31 () in
  List.iter
    (fun (av, bv, cv) ->
      let ins = [| av; bv; cv |] in
      let cts = Array.map (Pytfhe_tfhe.Gates.encrypt_bit rng sk) ins in
      let outs, stats = Runs.cpu ck net cts in
      let decrypted = Array.map (Pytfhe_tfhe.Gates.decrypt_bit sk) outs in
      let expected = Array.of_list (List.map snd (Plain_eval.run net ins)) in
      Alcotest.(check (array bool)) "encrypted = plain" expected decrypted;
      Alcotest.(check int) "bootstraps counted" 5 stats.Tfhe_eval.bootstraps_executed)
    [ (false, false, false); (true, false, true); (true, true, true) ]

let test_tfhe_eval_with_constants_and_not () =
  let sk, ck = Lazy.force keys in
  let net = Netlist.create ~fold_constants:false () in
  let a = Netlist.input net "a" in
  let t = Netlist.const net true in
  let na = Netlist.gate net Gate.Not a a in
  Netlist.mark_output net "o" (Netlist.gate net Gate.And na t);
  let rng = Rng.create ~seed:32 () in
  List.iter
    (fun v ->
      let cts = [| Pytfhe_tfhe.Gates.encrypt_bit rng sk v |] in
      let outs, _ = Runs.cpu ck net cts in
      Alcotest.(check bool) "not through constant and" (not v)
        (Pytfhe_tfhe.Gates.decrypt_bit sk outs.(0)))
    [ true; false ]

(* ------------------------------------------------------------------ *)
(* Parallel encrypted execution (Par_eval)                             *)
(* ------------------------------------------------------------------ *)

let random_netlist seed = Gen_circuit.random ~seed ()

let test_par_eval_matches_sequential =
  QCheck.Test.make ~name:"par_eval 1/2/4 workers bit-exact with tfhe_eval and plain_eval"
    ~count:4
    QCheck.(pair (int_range 0 10_000) (int_range 0 10_000))
    (fun (s1, s2) ->
      let sk, ck = Lazy.force keys in
      let net = random_netlist (1 + s1) in
      let rng = Rng.create ~seed:(1000 + s2) () in
      let ins = Array.init (Netlist.input_count net) (fun _ -> Rng.bool rng) in
      let cts = Array.map (Pytfhe_tfhe.Gates.encrypt_bit rng sk) ins in
      let seq_out, _ = Runs.cpu ck net cts in
      let plain = Array.of_list (List.map snd (Plain_eval.run net ins)) in
      let decrypted = Array.map (Pytfhe_tfhe.Gates.decrypt_bit sk) seq_out in
      if decrypted <> plain then QCheck.Test.fail_report "sequential disagrees with plain_eval";
      List.for_all
        (fun workers ->
          let par_out, st = Runs.par ~workers ck net cts in
          par_out = seq_out && st.Par_eval.workers = workers)
        [ 1; 2; 4 ])

let test_par_eval_stats () =
  let sk, ck = Lazy.force keys in
  let net = wide_netlist ~width:4 ~depth:2 in
  let rng = Rng.create ~seed:55 () in
  let ins = Array.init 5 (fun _ -> Rng.bool rng) in
  let cts = Array.map (Pytfhe_tfhe.Gates.encrypt_bit rng sk) ins in
  let seq_out, seq_stats = Runs.cpu ck net cts in
  let outs, st = Runs.par ~workers:3 ck net cts in
  Alcotest.(check bool) "ciphertexts identical" true (outs = seq_out);
  Alcotest.(check int) "bootstrap totals agree" seq_stats.Tfhe_eval.bootstraps_executed
    st.Par_eval.bootstraps_executed;
  Alcotest.(check int) "per-domain counts sum to total" st.Par_eval.bootstraps_executed
    (Array.fold_left ( + ) 0 st.Par_eval.per_domain_bootstraps);
  Alcotest.(check int) "one stats entry per domain" 3
    (Array.length st.Par_eval.per_domain_bootstraps);
  let sched = Levelize.run net in
  Alcotest.(check int) "one wave per level" sched.Levelize.depth
    (Array.length st.Par_eval.wave_wall);
  Alcotest.(check int) "wave widths cover every bootstrap" st.Par_eval.bootstraps_executed
    (Array.fold_left ( + ) 0 st.Par_eval.wave_width);
  Alcotest.(check (float 1e-9)) "ideal speedup matches the exposed bound"
    (Par_eval.ideal_speedup sched 3) st.Par_eval.ideal_speedup;
  Alcotest.(check bool) "rejects workers < 1" true
    (try ignore (Runs.par ~workers:(-1) ck net cts); false with Invalid_argument _ -> true);
  Alcotest.(check bool) "rejects input arity mismatch" true
    (try ignore (Runs.par ~workers:2 ck net (Array.sub cts 0 2)); false
     with Invalid_argument _ -> true)

let test_par_eval_full_adder () =
  let sk, ck = Lazy.force keys in
  let net = Netlist.create () in
  let a = Netlist.input net "a" in
  let b = Netlist.input net "b" in
  let cin = Netlist.input net "cin" in
  let axb = Netlist.gate net Gate.Xor a b in
  Netlist.mark_output net "sum" (Netlist.gate net Gate.Xor axb cin);
  let c1 = Netlist.gate net Gate.And a b in
  let c2 = Netlist.gate net Gate.And axb cin in
  Netlist.mark_output net "cout" (Netlist.gate net Gate.Or c1 c2);
  let rng = Rng.create ~seed:33 () in
  List.iter
    (fun (av, bv, cv) ->
      let ins = [| av; bv; cv |] in
      let cts = Array.map (Pytfhe_tfhe.Gates.encrypt_bit rng sk) ins in
      let outs, stats = Runs.par ~workers:4 ck net cts in
      let decrypted = Array.map (Pytfhe_tfhe.Gates.decrypt_bit sk) outs in
      let expected = Array.of_list (List.map snd (Plain_eval.run net ins)) in
      Alcotest.(check (array bool)) "parallel encrypted = plain" expected decrypted;
      Alcotest.(check int) "bootstraps counted" 5 stats.Par_eval.bootstraps_executed)
    [ (false, true, false); (true, true, true) ]

let () =
  Alcotest.run "backend"
    [
      ( "plain",
        [
          Alcotest.test_case "binary matches netlist" `Quick test_plain_run_binary_matches;
          Alcotest.test_case "named eval" `Quick test_plain_run_named;
          Alcotest.test_case "stream executor" `Quick test_run_binary_matches_netlist;
          Alcotest.test_case "stream constants" `Quick test_run_binary_handles_constants;
          Alcotest.test_case "stream rejects malformed" `Quick test_run_binary_rejects_malformed;
          Alcotest.test_case "stream rejects malformed LUT records" `Quick
            test_run_binary_rejects_malformed_lut;
          QCheck_alcotest.to_alcotest qcheck_mutation_verdicts;
          Alcotest.test_case "stream encrypted" `Slow test_run_binary_encrypted;
          Alcotest.test_case "vcd export" `Quick test_vcd_export;
          Alcotest.test_case "vcd identifier scaling" `Quick test_vcd_identifiers_scale;
        ] );
      ( "cost-model",
        [
          Alcotest.test_case "paper constants" `Quick test_cost_model_constants;
          Alcotest.test_case "calibration" `Quick test_cost_model_calibration;
          Alcotest.test_case "gpu models" `Quick test_gpu_models;
        ] );
      ( "sched-cpu",
        [
          Alcotest.test_case "wide circuits scale" `Quick test_sched_cpu_wide_scales;
          Alcotest.test_case "serial circuits do not" `Quick test_sched_cpu_serial_does_not_scale;
          Alcotest.test_case "makespan decomposition" `Quick test_sched_cpu_makespan_decomposition;
          Alcotest.test_case "run executes values" `Quick test_sched_cpu_run_executes;
        ] );
      ( "sched-gpu",
        [
          Alcotest.test_case "cuFHE per-gate cost" `Quick test_gpu_cufhe_is_per_gate;
          Alcotest.test_case "graphs beat per-gate on wide" `Quick test_gpu_pytfhe_beats_cufhe_on_wide;
          Alcotest.test_case "serial stays modest" `Quick test_gpu_pytfhe_modest_on_serial;
          Alcotest.test_case "4090 beats a5000" `Quick test_gpu_4090_faster_than_a5000;
          Alcotest.test_case "timelines" `Quick test_gpu_timelines;
          Alcotest.test_case "memory-bounded batching" `Quick test_gpu_batching_respects_memory_bound;
          Alcotest.test_case "oversized wave split" `Quick test_gpu_batches_of_splits_oversized_waves;
          Alcotest.test_case "asap beats barriers" `Quick test_sched_asap_beats_barriers;
          Alcotest.test_case "asap chain lower bound" `Quick test_sched_asap_serial_chain_is_serial;
          Alcotest.test_case "type-batched cuFHE in between" `Quick test_gpu_batched_sits_between;
        ] );
      ( "tfhe-eval",
        [
          Alcotest.test_case "full adder encrypted" `Slow test_tfhe_eval_full_adder;
          Alcotest.test_case "constants and NOT" `Slow test_tfhe_eval_with_constants_and_not;
        ] );
      ( "par-eval",
        [
          QCheck_alcotest.to_alcotest test_par_eval_matches_sequential;
          Alcotest.test_case "stats invariants" `Slow test_par_eval_stats;
          Alcotest.test_case "full adder on 4 domains" `Slow test_par_eval_full_adder;
        ] );
    ]
