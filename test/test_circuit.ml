module Rng = Pytfhe_util.Rng
open Pytfhe_circuit
module Opt = Pytfhe_synth.Opt

(* ------------------------------------------------------------------ *)
(* Gate                                                                *)
(* ------------------------------------------------------------------ *)

let test_gate_codes_roundtrip () =
  List.iter
    (fun g ->
      match Gate.of_code (Gate.to_code g) with
      | Some g' -> Alcotest.(check string) "code roundtrip" (Gate.name g) (Gate.name g')
      | None -> Alcotest.fail "missing code")
    Gate.all;
  Alcotest.(check int) "xor encodes as 0110" 6 (Gate.to_code Gate.Xor);
  Alcotest.(check int) "eleven gate types" 11 (List.length Gate.all)

let test_gate_swap_is_involutive_semantics () =
  List.iter
    (fun g ->
      match Gate.swap g with
      | None -> Alcotest.(check bool) "only NOT lacks a mirror" true (Gate.is_unary g)
      | Some g' ->
        List.iter
          (fun (a, b) ->
            Alcotest.(check bool)
              (Printf.sprintf "%s mirrored" (Gate.name g))
              (Gate.eval g a b) (Gate.eval g' b a))
          [ (false, false); (false, true); (true, false); (true, true) ])
    Gate.all

let test_gate_commutativity_flag () =
  List.iter
    (fun g ->
      if Gate.is_commutative g then
        List.iter
          (fun (a, b) ->
            Alcotest.(check bool) "commutes" (Gate.eval g a b) (Gate.eval g b a))
          [ (false, true); (true, false) ])
    Gate.all

(* ------------------------------------------------------------------ *)
(* Netlist construction and folding                                    *)
(* ------------------------------------------------------------------ *)

let test_netlist_basics () =
  let net = Netlist.create () in
  let a = Netlist.input net "a" in
  let b = Netlist.input net "b" in
  let x = Netlist.gate net Gate.Xor a b in
  Netlist.mark_output net "x" x;
  Alcotest.(check int) "inputs" 2 (Netlist.input_count net);
  Alcotest.(check int) "gates" 1 (Netlist.gate_count net);
  Alcotest.(check (list (pair string bool)))
    "eval"
    [ ("x", true) ]
    (Netlist.eval_outputs net [| true; false |])

let test_netlist_const_folding () =
  let net = Netlist.create () in
  let a = Netlist.input net "a" in
  let t = Netlist.const net true in
  let f = Netlist.const net false in
  (* AND with true is the wire itself. *)
  Alcotest.(check int) "and(a, 1) = a" a (Netlist.gate net Gate.And a t);
  (* AND with false is the false constant. *)
  Alcotest.(check int) "and(a, 0) = 0" f (Netlist.gate net Gate.And a f);
  (* OR with true folds to true. *)
  Alcotest.(check int) "or(a, 1) = 1" t (Netlist.gate net Gate.Or a t);
  (* XOR with false is the wire itself. *)
  Alcotest.(check int) "xor(a, 0) = a" a (Netlist.gate net Gate.Xor a f);
  (* const-const folds fully *)
  Alcotest.(check int) "xor(1, 1) = 0" f (Netlist.gate net Gate.Xor t t);
  Alcotest.(check int) "no gates were emitted" 0 (Netlist.gate_count net)

let test_netlist_same_input_folding () =
  let net = Netlist.create () in
  let a = Netlist.input net "a" in
  Alcotest.(check int) "and(a,a) = a" a (Netlist.gate net Gate.And a a);
  Alcotest.(check int) "or(a,a) = a" a (Netlist.gate net Gate.Or a a);
  let f = Netlist.gate net Gate.Xor a a in
  (match Netlist.kind net f with
  | Netlist.Const false -> ()
  | _ -> Alcotest.fail "xor(a,a) should fold to false");
  let na = Netlist.gate net Gate.Nand a a in
  (match Netlist.kind net na with
  | Netlist.Gate (Gate.Not, x, _) -> Alcotest.(check int) "nand(a,a) = not a" a x
  | _ -> Alcotest.fail "nand(a,a) should fold to a NOT")

let test_netlist_double_negation () =
  let net = Netlist.create () in
  let a = Netlist.input net "a" in
  let na = Netlist.not_ net a in
  Alcotest.(check int) "not(not a) = a" a (Netlist.not_ net na)

let test_netlist_xor_with_true_becomes_not () =
  let net = Netlist.create () in
  let a = Netlist.input net "a" in
  let t = Netlist.const net true in
  let x = Netlist.gate net Gate.Xor a t in
  match Netlist.kind net x with
  | Netlist.Gate (Gate.Not, y, _) -> Alcotest.(check int) "negates a" a y
  | _ -> Alcotest.fail "xor(a, 1) should be NOT a"

let test_netlist_cse () =
  let net = Netlist.create () in
  let a = Netlist.input net "a" in
  let b = Netlist.input net "b" in
  let g1 = Netlist.gate net Gate.And a b in
  let g2 = Netlist.gate net Gate.And a b in
  Alcotest.(check int) "identical gates shared" g1 g2;
  let g3 = Netlist.gate net Gate.And b a in
  Alcotest.(check int) "commutative gates shared" g1 g3;
  (* the NY/YN mirrors canonicalise *)
  let m1 = Netlist.gate net Gate.Andny b a in
  let m2 = Netlist.gate net Gate.Andyn a b in
  Alcotest.(check int) "mirror pair shared" m1 m2;
  Alcotest.(check int) "two distinct gates total" 2 (Netlist.gate_count net)

let test_netlist_no_optimizations_mode () =
  let net = Netlist.create ~hash_consing:false ~fold_constants:false () in
  let a = Netlist.input net "a" in
  let t = Netlist.const net true in
  let g1 = Netlist.gate net Gate.And a t in
  let g2 = Netlist.gate net Gate.And a t in
  Alcotest.(check bool) "no folding" true (g1 <> a);
  Alcotest.(check bool) "no sharing" true (g1 <> g2);
  Alcotest.(check int) "both gates emitted" 2 (Netlist.gate_count net)

let test_netlist_mux_truth_table () =
  let net = Netlist.create () in
  let s = Netlist.input net "s" in
  let x = Netlist.input net "x" in
  let y = Netlist.input net "y" in
  Netlist.mark_output net "o" (Netlist.mux net s x y);
  List.iter
    (fun (sv, xv, yv) ->
      let out = List.assoc "o" (Netlist.eval_outputs net [| sv; xv; yv |]) in
      Alcotest.(check bool) "mux" (if sv then xv else yv) out)
    [
      (false, false, true); (false, true, false); (true, false, true); (true, true, false);
      (true, true, true); (false, false, false);
    ]

let test_netlist_rejects_bad_ids () =
  let net = Netlist.create () in
  let a = Netlist.input net "a" in
  Alcotest.check_raises "unknown fan-in" (Invalid_argument "Netlist.gate: unknown fan-in")
    (fun () -> ignore (Netlist.gate net Gate.And a 999))

(* ------------------------------------------------------------------ *)
(* Levelize                                                            *)
(* ------------------------------------------------------------------ *)

let test_levelize_chain () =
  let net = Netlist.create () in
  let a = Netlist.input net "a" in
  let b = Netlist.input net "b" in
  let g1 = Netlist.gate net Gate.And a b in
  let g2 = Netlist.gate net Gate.Xor g1 b in
  let g3 = Netlist.gate net Gate.Or g2 a in
  Netlist.mark_output net "o" g3;
  let s = Levelize.run net in
  Alcotest.(check int) "depth 3" 3 s.Levelize.depth;
  Alcotest.(check (array int)) "one gate per wave" [| 1; 1; 1 |] s.Levelize.widths;
  Alcotest.(check int) "levels" 1 s.Levelize.level.(g1);
  Alcotest.(check int) "levels" 2 s.Levelize.level.(g2);
  Alcotest.(check int) "levels" 3 s.Levelize.level.(g3)

let test_levelize_parallel () =
  let net = Netlist.create () in
  let ins = Array.init 8 (fun i -> Netlist.input net (Printf.sprintf "i%d" i)) in
  (* A balanced reduction tree: 4 + 2 + 1 gates over 3 levels. *)
  let l1 = Array.init 4 (fun i -> Netlist.gate net Gate.And ins.(2 * i) ins.((2 * i) + 1)) in
  let l2 = Array.init 2 (fun i -> Netlist.gate net Gate.And l1.(2 * i) l1.((2 * i) + 1)) in
  let top = Netlist.gate net Gate.And l2.(0) l2.(1) in
  Netlist.mark_output net "o" top;
  let s = Levelize.run net in
  Alcotest.(check int) "depth" 3 s.Levelize.depth;
  Alcotest.(check (array int)) "widths" [| 4; 2; 1 |] s.Levelize.widths;
  Alcotest.(check int) "max width" 4 (Levelize.max_width s)

let test_levelize_not_is_free () =
  let net = Netlist.create () in
  let a = Netlist.input net "a" in
  let b = Netlist.input net "b" in
  let g1 = Netlist.gate net Gate.And a b in
  let n1 = Netlist.gate net Gate.Not g1 g1 in
  let g2 = Netlist.gate net Gate.Or n1 a in
  Netlist.mark_output net "o" g2;
  let s = Levelize.run net in
  Alcotest.(check int) "NOT does not advance level" 2 s.Levelize.depth;
  Alcotest.(check int) "not level equals fan-in" s.Levelize.level.(g1) s.Levelize.level.(n1);
  Alcotest.(check int) "two bootstraps" 2 s.Levelize.total_bootstraps

let test_levelize_serial_fraction () =
  let net = Netlist.create () in
  let a = Netlist.input net "a" in
  let b = Netlist.input net "b" in
  let rec chain x n = if n = 0 then x else chain (Netlist.gate net Gate.Xor x b) (n - 1) in
  Netlist.mark_output net "o" (chain a 10);
  let s = Levelize.run net in
  Alcotest.(check (float 1e-9)) "fully serial" 1.0 (Levelize.serial_fraction s);
  Alcotest.(check (float 1e-9)) "avg width 1" 1.0 (Levelize.average_width s)

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let test_stats_counts () =
  let net = Netlist.create () in
  let a = Netlist.input net "a" in
  let b = Netlist.input net "b" in
  let x = Netlist.gate net Gate.Xor a b in
  let y = Netlist.gate net Gate.And a b in
  let z = Netlist.gate net Gate.Not x x in
  Netlist.mark_output net "y" y;
  Netlist.mark_output net "z" z;
  let s = Stats.compute net in
  Alcotest.(check int) "gates" 3 s.Stats.gates;
  Alcotest.(check int) "bootstraps exclude NOT" 2 s.Stats.bootstraps;
  Alcotest.(check int) "xor count" 1 (List.assoc Gate.Xor s.Stats.per_gate);
  Alcotest.(check int) "and count" 1 (List.assoc Gate.And s.Stats.per_gate);
  Alcotest.(check int) "not count" 1 (List.assoc Gate.Not s.Stats.per_gate);
  Alcotest.(check int) "outputs" 2 s.Stats.outputs

(* ------------------------------------------------------------------ *)
(* Binary format                                                       *)
(* ------------------------------------------------------------------ *)

let half_adder () =
  let net = Netlist.create () in
  let a = Netlist.input net "a" in
  let b = Netlist.input net "b" in
  Netlist.mark_output net "sum" (Netlist.gate net Gate.Xor a b);
  Netlist.mark_output net "carry" (Netlist.gate net Gate.And a b);
  net

let test_binary_half_adder_encoding () =
  (* The paper's Fig. 6: header(2 gates), inputs 1 and 2, XOR(1,2) at index
     3, AND(1,2) at index 4, outputs 3 and 4. *)
  let bytes = Binary.assemble (half_adder ()) in
  Alcotest.(check int) "7 instructions" 7 (Binary.instruction_count bytes);
  match Binary.disassemble bytes with
  | [
   Binary.Header { gate_total = 2 };
   Binary.Input_decl { index = 1 };
   Binary.Input_decl { index = 2 };
   Binary.Gate_inst { gate = Gate.Xor; in0 = 1; in1 = 2 };
   Binary.Gate_inst { gate = Gate.And; in0 = 1; in1 = 2 };
   Binary.Output_decl { index = 3 };
   Binary.Output_decl { index = 4 };
  ] ->
    ()
  | insts ->
    List.iter (Format.printf "%a@." Binary.pp_instruction) insts;
    Alcotest.fail "unexpected instruction stream"

let test_binary_instruction_size () =
  let bytes = Binary.assemble (half_adder ()) in
  Alcotest.(check int) "128 bits per instruction" (7 * 16) (Bytes.length bytes)

let test_binary_roundtrip_function () =
  let net = half_adder () in
  let parsed = Binary.parse (Binary.assemble net) in
  List.iter
    (fun (a, b) ->
      let expected = Netlist.eval_outputs net [| a; b |] in
      let got = Netlist.eval_outputs parsed [| a; b |] in
      Alcotest.(check (list bool)) "same function" (List.map snd expected) (List.map snd got))
    [ (false, false); (false, true); (true, false); (true, true) ]

let test_binary_const_materialisation () =
  let net = Netlist.create ~fold_constants:false () in
  let a = Netlist.input net "a" in
  let t = Netlist.const net true in
  let g = Netlist.gate net Gate.And a t in
  Netlist.mark_output net "o" g;
  let parsed = Binary.parse (Binary.assemble net) in
  List.iter
    (fun v ->
      let got = List.assoc "out0" (Netlist.eval_outputs parsed [| v |]) in
      Alcotest.(check bool) "and with materialised true" v got)
    [ true; false ]

let test_binary_rejects_const_without_inputs () =
  let net = Netlist.create ~fold_constants:false () in
  let t = Netlist.const net true in
  Netlist.mark_output net "o" t;
  Alcotest.(check bool) "raises"
    true
    (try
       ignore (Binary.assemble net);
       false
     with Failure _ -> true)

let test_binary_rejects_garbage () =
  Alcotest.(check bool) "truncated stream rejected" true
    (try
       ignore (Binary.disassemble (Bytes.create 15));
       false
     with Pytfhe_util.Wire.Corrupt _ -> true);
  Alcotest.(check bool) "empty stream rejected" true
    (try
       ignore (Binary.disassemble (Bytes.create 0));
       false
     with Pytfhe_util.Wire.Corrupt _ -> true)

(* A random DAG generator shared by the roundtrip and optimizer tests. *)
let random_netlist seed =
  let rng = Rng.create ~seed () in
  let net = Netlist.create ~hash_consing:false ~fold_constants:false () in
  let n_inputs = 2 + Rng.int rng 6 in
  let nodes = ref [] in
  for i = 0 to n_inputs - 1 do
    nodes := Netlist.input net (Printf.sprintf "i%d" i) :: !nodes
  done;
  let n_gates = 5 + Rng.int rng 60 in
  let binary_gates = List.filter (fun g -> not (Gate.is_unary g)) Gate.all in
  let pick l = List.nth l (Rng.int rng (List.length l)) in
  for _ = 1 to n_gates do
    let arr = Array.of_list !nodes in
    let a = arr.(Rng.int rng (Array.length arr)) in
    let b = arr.(Rng.int rng (Array.length arr)) in
    let g = pick binary_gates in
    nodes := Netlist.gate net g a b :: !nodes
  done;
  let arr = Array.of_list !nodes in
  for i = 0 to 2 do
    Netlist.mark_output net (Printf.sprintf "o%d" i) arr.(Rng.int rng (Array.length arr))
  done;
  (net, n_inputs)

let random_bools rng n = Array.init n (fun _ -> Rng.bool rng)

let qcheck_binary_roundtrip =
  QCheck.Test.make ~name:"assemble/parse preserves the function" ~count:40 QCheck.small_nat
    (fun seed ->
      let net, n_inputs = random_netlist seed in
      let parsed = Binary.parse (Binary.assemble net) in
      let rng = Rng.create ~seed:(seed + 999) () in
      List.for_all
        (fun _ ->
          let ins = random_bools rng n_inputs in
          List.map snd (Netlist.eval_outputs net ins)
          = List.map snd (Netlist.eval_outputs parsed ins))
        [ 1; 2; 3; 4; 5 ])

(* ------------------------------------------------------------------ *)
(* Optimizer                                                           *)
(* ------------------------------------------------------------------ *)

let qcheck_optimize_preserves_function =
  QCheck.Test.make ~name:"optimize preserves the function" ~count:60 QCheck.small_nat
    (fun seed ->
      let net, n_inputs = random_netlist seed in
      let optimized, report = Opt.optimize net in
      let rng = Rng.create ~seed:(seed + 4242) () in
      report.Opt.gates_after <= report.Opt.gates_before
      && List.for_all
           (fun _ ->
             let ins = random_bools rng n_inputs in
             List.map snd (Netlist.eval_outputs net ins)
             = List.map snd (Netlist.eval_outputs optimized ins))
           [ 1; 2; 3; 4; 5; 6; 7; 8 ])

let test_opt_removes_dead_gates () =
  let net = Netlist.create ~hash_consing:false ~fold_constants:false () in
  let a = Netlist.input net "a" in
  let b = Netlist.input net "b" in
  let live = Netlist.gate net Gate.And a b in
  let _dead = Netlist.gate net Gate.Or a b in
  Netlist.mark_output net "o" live;
  let optimized, _ = Opt.optimize net in
  Alcotest.(check int) "dead gate removed" 1 (Netlist.gate_count optimized)

let test_opt_absorbs_inverters () =
  let net = Netlist.create ~hash_consing:false ~fold_constants:false () in
  let a = Netlist.input net "a" in
  let b = Netlist.input net "b" in
  let na = Netlist.gate net Gate.Not a a in
  let g = Netlist.gate net Gate.And na b in
  Netlist.mark_output net "o" g;
  let optimized, _ = Opt.optimize net in
  Alcotest.(check int) "single gate remains" 1 (Netlist.gate_count optimized);
  (match Netlist.outputs optimized with
  | [ (_, id) ] -> (
    match Netlist.kind optimized id with
    | Netlist.Gate (Gate.Andny, _, _) -> ()
    | _ -> Alcotest.fail "expected ANDNY")
  | _ -> Alcotest.fail "one output expected");
  List.iter
    (fun (av, bv) ->
      let expected = (not av) && bv in
      Alcotest.(check bool) "function preserved" expected
        (List.assoc "o" (Netlist.eval_outputs optimized [| av; bv |])))
    [ (false, false); (false, true); (true, false); (true, true) ]

let test_opt_cse_merges () =
  let net = Netlist.create ~hash_consing:false ~fold_constants:false () in
  let a = Netlist.input net "a" in
  let b = Netlist.input net "b" in
  let g1 = Netlist.gate net Gate.Xor a b in
  let g2 = Netlist.gate net Gate.Xor b a in
  Netlist.mark_output net "o" (Netlist.gate net Gate.And g1 g2);
  let optimized, _ = Opt.optimize net in
  (* AND(x, x) folds to x after CSE, leaving the single shared XOR. *)
  Alcotest.(check int) "xor shared and AND folded" 1 (Netlist.gate_count optimized)

let test_opt_interface_stable () =
  let net, n_inputs = random_netlist 7 in
  let optimized = Opt.rebuild net in
  Alcotest.(check int) "inputs preserved" n_inputs (Netlist.input_count optimized);
  Alcotest.(check (list string))
    "output names preserved"
    (List.map fst (Netlist.outputs net))
    (List.map fst (Netlist.outputs optimized));
  Alcotest.(check (list string))
    "input names preserved"
    (List.map fst (Netlist.inputs net))
    (List.map fst (Netlist.inputs optimized))



let test_equivalence_checker () =
  let ha = half_adder () in
  let optimized = Opt.rebuild ha in
  Alcotest.(check bool) "optimized is equivalent" true (Opt.equivalent ha optimized);
  (* a genuinely different circuit is rejected *)
  let other = Netlist.create () in
  let a = Netlist.input other "a" in
  let b = Netlist.input other "b" in
  Netlist.mark_output other "sum" (Netlist.gate other Gate.Or a b);
  Netlist.mark_output other "carry" (Netlist.gate other Gate.And a b);
  Alcotest.(check bool) "different function rejected" false (Opt.equivalent ha other);
  (* interface mismatches are rejected outright *)
  let narrower = Netlist.create () in
  let x = Netlist.input narrower "x" in
  Netlist.mark_output narrower "o" x;
  Alcotest.(check bool) "interface mismatch" false (Opt.equivalent ha narrower)

let qcheck_optimize_equivalent_via_checker =
  QCheck.Test.make ~name:"optimize passes the equivalence checker" ~count:30 QCheck.small_nat
    (fun seed ->
      let net, _ = random_netlist seed in
      let optimized, _ = Opt.optimize net in
      Opt.equivalent net optimized)

(* ------------------------------------------------------------------ *)
(* Verilog interchange                                                 *)
(* ------------------------------------------------------------------ *)

module Verilog = Pytfhe_synth.Verilog

let test_verilog_export_half_adder () =
  let text = Verilog.export ~module_name:"half_adder" (half_adder ()) in
  Alcotest.(check bool) "has module header" true
    (String.length text > 0 && String.sub text 0 18 = "module half_adder ");
  List.iter
    (fun fragment ->
      Alcotest.(check bool) (fragment ^ " present") true
        (let re = Str.regexp_string fragment in
         try ignore (Str.search_forward re text 0); true with Not_found -> false))
    [ "input wire a"; "input wire b"; "output wire out_sum"; "a ^ b"; "a & b"; "endmodule" ]

let test_verilog_roundtrip_half_adder () =
  let net = half_adder () in
  let parsed = Verilog.parse (Verilog.export net) in
  List.iter
    (fun (a, b) ->
      Alcotest.(check (list bool)) "function preserved"
        (List.map snd (Netlist.eval_outputs net [| a; b |]))
        (List.map snd (Netlist.eval_outputs parsed [| a; b |])))
    [ (false, false); (false, true); (true, false); (true, true) ]

let qcheck_verilog_roundtrip =
  QCheck.Test.make ~name:"verilog export/parse preserves the function" ~count:30 QCheck.small_nat
    (fun seed ->
      let net, n_inputs = random_netlist seed in
      let parsed = Verilog.parse (Verilog.export net) in
      let rng = Rng.create ~seed:(seed + 777) () in
      List.for_all
        (fun _ ->
          let ins = random_bools rng n_inputs in
          List.map snd (Netlist.eval_outputs net ins)
          = List.map snd (Netlist.eval_outputs parsed ins))
        [ 1; 2; 3; 4; 5 ])

let test_verilog_parse_handwritten () =
  let src = {|
    // a handwritten majority-and-parity module
    module maj (input a, input b, input wire c, output maj_o, output par_o);
      wire t1, t2, t3;
      assign t1 = a & b;
      assign t2 = b & c;
      assign t3 = a & c;
      assign maj_o = t1 | t2 | t3;
      assign par_o = a ^ b ^ c;
    endmodule
  |} in
  let net = Verilog.parse src in
  List.iter
    (fun (a, b, c) ->
      let outs = Netlist.eval_outputs net [| a; b; c |] in
      let count = Bool.to_int a + Bool.to_int b + Bool.to_int c in
      Alcotest.(check bool) "majority" (count >= 2) (List.assoc "maj_o" outs);
      Alcotest.(check bool) "parity" (count land 1 = 1) (List.assoc "par_o" outs))
    [ (false, false, false); (true, false, true); (true, true, true); (false, true, false) ]

let test_verilog_precedence () =
  (* ~ binds tighter than &, & tighter than ^, ^ tighter than |. *)
  let src = {|
    module p (input a, input b, input c, output o);
      assign o = a | b & ~c ^ b;
    endmodule
  |} in
  let net = Verilog.parse src in
  List.iter
    (fun (a, b, c) ->
      let expected = a || ((b && not c) <> b) in
      Alcotest.(check bool) "precedence" expected
        (List.assoc "o" (Netlist.eval_outputs net [| a; b; c |])))
    [ (false, true, false); (false, true, true); (true, false, false); (false, false, true) ]

let test_verilog_constants () =
  let src = {|
    module k (input a, output o0, output o1);
      assign o0 = a & 1'b0;
      assign o1 = a | 1'b1;
    endmodule
  |} in
  let net = Verilog.parse src in
  let outs = Netlist.eval_outputs net [| true |] in
  Alcotest.(check bool) "and 0" false (List.assoc "o0" outs);
  Alcotest.(check bool) "or 1" true (List.assoc "o1" outs)

let test_verilog_errors () =
  let bad message src =
    Alcotest.(check bool) message true
      (try ignore (Verilog.parse src); false with Verilog.Parse_error _ -> true)
  in
  bad "undeclared wire" "module m (input a, output o); assign o = zz; endmodule";
  bad "missing semicolon" "module m (input a, output o); assign o = a endmodule";
  bad "undriven output" "module m (input a, output o); endmodule";
  bad "garbage" "this is not verilog at all";
  bad "unexpected char" "module m (input a, output o); assign o = a + a; endmodule"




let qcheck_binary_structure =
  QCheck.Test.make ~name:"binary instruction accounting" ~count:40 QCheck.small_nat (fun seed ->
      let net, _ = random_netlist seed in
      let bytes = Binary.assemble net in
      let header, inputs, gates, outputs =
        List.fold_left
          (fun (h, i, g, o) inst ->
            match inst with
            | Binary.Header _ -> (h + 1, i, g, o)
            | Binary.Input_decl _ -> (h, i + 1, g, o)
            | Binary.Gate_inst _ | Binary.Lut_inst _ -> (h, i, g + 1, o)
            | Binary.Output_decl _ -> (h, i, g, o + 1))
          (0, 0, 0, 0) (Binary.disassemble bytes)
      in
      header = 1
      && inputs = Netlist.input_count net
      && outputs = List.length (Netlist.outputs net)
      && gates >= Netlist.gate_count net (* + possible constant materialisation *)
      && Binary.instruction_count bytes = header + inputs + gates + outputs
      && (match Binary.disassemble bytes with
         | Binary.Header { gate_total } :: _ -> gate_total = gates
         | _ -> false))

let qcheck_levelize_invariants =
  QCheck.Test.make ~name:"levelization respects dependencies" ~count:40 QCheck.small_nat
    (fun seed ->
      let net, _ = random_netlist seed in
      let s = Levelize.run net in
      let ok = ref true in
      Netlist.iter_gates net (fun id g a b ->
          if Gate.is_unary g then begin
            if s.Levelize.level.(id) < s.Levelize.level.(a) then ok := false
          end
          else if
            s.Levelize.level.(id) <= s.Levelize.level.(a)
            || s.Levelize.level.(id) <= s.Levelize.level.(b)
          then ok := false);
      !ok && Array.fold_left ( + ) 0 s.Levelize.widths = s.Levelize.total_bootstraps)

let qcheck_stats_consistency =
  QCheck.Test.make ~name:"stats distribution sums to the gate count" ~count:40 QCheck.small_nat
    (fun seed ->
      let net, _ = random_netlist seed in
      let s = Stats.compute net in
      List.fold_left (fun acc (_, c) -> acc + c) 0 s.Stats.per_gate = s.Stats.gates
      && s.Stats.bootstraps <= s.Stats.gates
      && s.Stats.max_width <= s.Stats.bootstraps)

let qcheck_optimize_fixpoint =
  QCheck.Test.make ~name:"optimization reaches a fixpoint" ~count:30 QCheck.small_nat (fun seed ->
      let net, _ = random_netlist seed in
      let once, _ = Opt.optimize net in
      let twice, _ = Opt.optimize once in
      Netlist.gate_count twice = Netlist.gate_count once)

(* ------------------------------------------------------------------ *)
(* Yosys JSON interchange                                              *)
(* ------------------------------------------------------------------ *)

module Yosys_json = Pytfhe_synth.Yosys_json

let test_yosys_roundtrip_half_adder () =
  let net = half_adder () in
  let parsed = Yosys_json.import (Yosys_json.export net) in
  Alcotest.(check bool) "equivalent" true (Opt.equivalent net parsed)

let qcheck_yosys_roundtrip =
  QCheck.Test.make ~name:"yosys json export/import preserves the function" ~count:30
    QCheck.small_nat (fun seed ->
      let net, _ = random_netlist seed in
      Opt.equivalent net (Yosys_json.import (Yosys_json.export net)))

let test_yosys_import_handwritten () =
  (* The shape a real `yosys -p "synth; abc -g simple; write_json"` emits:
     multi-bit ports, unordered cells, constants, a mux. *)
  let src = {|
    {
      "creator": "Yosys 0.33",
      "modules": {
        "top": {
          "ports": {
            "a": { "direction": "input", "bits": [2, 3] },
            "s": { "direction": "input", "bits": [4] },
            "y": { "direction": "output", "bits": [7, 8] }
          },
          "cells": {
            "mux0": { "type": "$_MUX_",
                      "connections": { "A": [2], "B": [3], "S": [4], "Y": [7] } },
            "x1": { "type": "$_ANDNOT_",
                    "connections": { "A": [3], "B": [5], "Y": [8] } },
            "n0": { "type": "$_NOT_", "connections": { "A": [2], "Y": [5] } }
          }
        }
      }
    }
  |} in
  let net = Yosys_json.import src in
  Alcotest.(check int) "three input bits" 3 (Netlist.input_count net);
  List.iter
    (fun (a0, a1, s) ->
      let outs = Netlist.eval_outputs net [| a0; a1; s |] in
      (* y[0] = mux: S ? B : A = s ? a1 : a0; y[1] = a1 AND NOT (NOT a0) = a1 AND a0 *)
      Alcotest.(check bool) "mux bit" (if s then a1 else a0) (List.assoc "y[0]" outs);
      Alcotest.(check bool) "andnot chain" (a1 && a0) (List.assoc "y[1]" outs))
    [ (false, true, false); (false, true, true); (true, true, true); (true, false, false) ]

let test_yosys_import_errors () =
  let bad message src =
    Alcotest.(check bool) message true
      (try ignore (Yosys_json.import src); false
       with Yosys_json.Import_error _ | Pytfhe_util.Json.Parse_error _ -> true)
  in
  bad "not json" "hello";
  bad "no modules" "{}";
  bad "two modules" {|{"modules": {"a": {"ports": {}}, "b": {"ports": {}}}}|};
  bad "undriven net"
    {|{"modules": {"m": {"ports": {"y": {"direction": "output", "bits": [9]}}, "cells": {}}}}|};
  bad "unsupported cell"
    {|{"modules": {"m": {"ports": {"a": {"direction": "input", "bits": [2]},
       "y": {"direction": "output", "bits": [3]}},
       "cells": {"c": {"type": "$add", "connections": {"A": [2], "Y": [3]}}}}}}|};
  bad "cycle"
    {|{"modules": {"m": {"ports": {"y": {"direction": "output", "bits": [2]}},
       "cells": {"c": {"type": "$_NOT_", "connections": {"A": [2], "Y": [2]}}}}}}|}

let test_dot_export () =
  let text = Dot.export ~graph_name:"ha" (half_adder ()) in
  List.iter
    (fun fragment ->
      Alcotest.(check bool) (fragment ^ " present") true
        (let re = Str.regexp_string fragment in
         try ignore (Str.search_forward re text 0); true with Not_found -> false))
    [ "digraph ha"; "\"xor\""; "\"and\""; "lightblue"; "lightgreen"; "->" ]

let test_dot_export_guards_size () =
  let net = Netlist.create ~hash_consing:false () in
  let a = Netlist.input net "a" in
  let b = Netlist.input net "b" in
  for _ = 1 to 100 do
    ignore (Netlist.gate net Gate.Xor a b)
  done;
  Alcotest.(check bool) "limit enforced" true
    (try ignore (Dot.export ~max_nodes:50 net); false with Invalid_argument _ -> true)

let () =
  Alcotest.run "circuit"
    [
      ( "gate",
        [
          Alcotest.test_case "codes roundtrip" `Quick test_gate_codes_roundtrip;
          Alcotest.test_case "swap mirrors semantics" `Quick test_gate_swap_is_involutive_semantics;
          Alcotest.test_case "commutativity flags" `Quick test_gate_commutativity_flag;
        ] );
      ( "netlist",
        [
          Alcotest.test_case "basics" `Quick test_netlist_basics;
          Alcotest.test_case "constant folding" `Quick test_netlist_const_folding;
          Alcotest.test_case "same-input folding" `Quick test_netlist_same_input_folding;
          Alcotest.test_case "double negation" `Quick test_netlist_double_negation;
          Alcotest.test_case "xor with true" `Quick test_netlist_xor_with_true_becomes_not;
          Alcotest.test_case "structural hashing" `Quick test_netlist_cse;
          Alcotest.test_case "raw mode emits everything" `Quick test_netlist_no_optimizations_mode;
          Alcotest.test_case "mux lowering" `Quick test_netlist_mux_truth_table;
          Alcotest.test_case "rejects bad ids" `Quick test_netlist_rejects_bad_ids;
        ] );
      ( "levelize",
        [
          Alcotest.test_case "chain" `Quick test_levelize_chain;
          Alcotest.test_case "parallel tree" `Quick test_levelize_parallel;
          Alcotest.test_case "NOT is free" `Quick test_levelize_not_is_free;
          Alcotest.test_case "serial fraction" `Quick test_levelize_serial_fraction;
          QCheck_alcotest.to_alcotest qcheck_levelize_invariants;
        ] );
      ( "stats",
        [
          Alcotest.test_case "counts" `Quick test_stats_counts;
          QCheck_alcotest.to_alcotest qcheck_stats_consistency;
        ] );
      ( "binary",
        [
          Alcotest.test_case "half adder (Fig. 6)" `Quick test_binary_half_adder_encoding;
          Alcotest.test_case "128-bit instructions" `Quick test_binary_instruction_size;
          Alcotest.test_case "roundtrip function" `Quick test_binary_roundtrip_function;
          Alcotest.test_case "constants materialise" `Quick test_binary_const_materialisation;
          Alcotest.test_case "constants need an input" `Quick test_binary_rejects_const_without_inputs;
          Alcotest.test_case "rejects garbage" `Quick test_binary_rejects_garbage;
          QCheck_alcotest.to_alcotest qcheck_binary_roundtrip;
          QCheck_alcotest.to_alcotest qcheck_binary_structure;
        ] );
      ( "verilog",
        [
          Alcotest.test_case "export half adder" `Quick test_verilog_export_half_adder;
          Alcotest.test_case "roundtrip half adder" `Quick test_verilog_roundtrip_half_adder;
          QCheck_alcotest.to_alcotest qcheck_verilog_roundtrip;
          Alcotest.test_case "handwritten module" `Quick test_verilog_parse_handwritten;
          Alcotest.test_case "operator precedence" `Quick test_verilog_precedence;
          Alcotest.test_case "constants" `Quick test_verilog_constants;
          Alcotest.test_case "parse errors" `Quick test_verilog_errors;
        ] );
      ( "yosys-json",
        [
          Alcotest.test_case "roundtrip half adder" `Quick test_yosys_roundtrip_half_adder;
          QCheck_alcotest.to_alcotest qcheck_yosys_roundtrip;
          Alcotest.test_case "handwritten import" `Quick test_yosys_import_handwritten;
          Alcotest.test_case "import errors" `Quick test_yosys_import_errors;
        ] );
      ( "dot",
        [
          Alcotest.test_case "export" `Quick test_dot_export;
          Alcotest.test_case "size guard" `Quick test_dot_export_guards_size;
        ] );
      ( "opt",
        [
          QCheck_alcotest.to_alcotest qcheck_optimize_preserves_function;
          Alcotest.test_case "dead gates removed" `Quick test_opt_removes_dead_gates;
          Alcotest.test_case "inverter absorption" `Quick test_opt_absorbs_inverters;
          Alcotest.test_case "cse merges mirrored gates" `Quick test_opt_cse_merges;
          Alcotest.test_case "interface stable" `Quick test_opt_interface_stable;
          Alcotest.test_case "equivalence checker" `Quick test_equivalence_checker;
          QCheck_alcotest.to_alcotest qcheck_optimize_equivalent_via_checker;
          QCheck_alcotest.to_alcotest qcheck_optimize_fixpoint;
        ] );
    ]
