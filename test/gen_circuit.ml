(* Shared circuit generators for the test suite.

   The differential suites (cross-backend, par-eval) all need the same
   three DAG shapes: a wide embarrassingly-parallel layer stack, a serial
   chain, and a seeded random DAG drawing from the full 11-gate cell
   library.  Construction-time optimizations are disabled so the generated
   structure (and therefore the wave schedule) is exactly what the seed
   dictates. *)

module Netlist = Pytfhe_circuit.Netlist
module Gate = Pytfhe_circuit.Gate
module Rng = Pytfhe_util.Rng

(* [width] parallel gates per level for [depth] levels over [width + 1]
   inputs; every level is one full wave. *)
let wide ~width ~depth =
  let net = Netlist.create ~hash_consing:false ~fold_constants:false () in
  let inputs = Array.init (width + 1) (fun i -> Netlist.input net (Printf.sprintf "i%d" i)) in
  let layer = ref (Array.init width (fun i -> inputs.(i))) in
  for _ = 1 to depth do
    layer :=
      Array.mapi (fun i x -> Netlist.gate net Gate.Xor x inputs.((i + 1) mod (width + 1))) !layer
  done;
  Array.iteri (fun i x -> Netlist.mark_output net (Printf.sprintf "o%d" i) x) !layer;
  net

(* A fully serial chain of [depth] bootstrapped gates: the worst case for
   every parallel backend, and the shape noise-accumulation tests need. *)
let chain ~depth =
  let net = Netlist.create ~hash_consing:false ~fold_constants:false () in
  let a = Netlist.input net "a" in
  let b = Netlist.input net "b" in
  let rec go x n = if n = 0 then x else go (Netlist.gate net Gate.Xor x b) (n - 1) in
  Netlist.mark_output net "o" (go a depth);
  net

(* Seeded random DAG: [inputs] primary inputs, one random constant, then
   [gates] gates whose kinds and fan-ins are drawn uniformly (Not reuses
   its single fan-in).  The [outputs] most recent nodes become primary
   outputs, so deep nodes stay live. *)
(* Like {!random}, but the draw also emits programmable LUT cells: arity-1
   reencode cells (classic operand, identity or negated table), and
   arity-2/3 cells whose operands are reencoded on demand to satisfy the
   Netlist invariant that multi-input LUT operands live in lutdom.  Classic
   gates keep drawing from the full pool — including lutdom nodes, which
   executors must view back to classic — and outputs are marked on the most
   recent nodes of either encoding, so the classic-view boundary is
   exercised at operands and outputs alike. *)
let random_lut ?(inputs = 4) ?(gates = 14) ?(outputs = 4) ~seed () =
  let rng = Rng.create ~seed () in
  let net = Netlist.create ~hash_consing:false ~fold_constants:false () in
  let nodes = ref [] in
  for i = 0 to inputs - 1 do
    nodes := Netlist.input net (Printf.sprintf "i%d" i) :: !nodes
  done;
  nodes := Netlist.const net (Rng.bool rng) :: !nodes;
  let pick () = List.nth !nodes (Rng.int rng (List.length !nodes)) in
  (* A lutdom operand for a multi-input cell: an existing LUT node, or a
     fresh reencode over a classic pick.  Reencoding a constant folds back
     to a constant (no lutdom node exists for it), so redraw; the pool
     always holds at least one non-constant input, so this terminates. *)
  let rec lutdom () =
    let x = pick () in
    if Netlist.is_lut net x then x
    else
      let y = Netlist.lut net ~table:0b10 [| x |] in
      if Netlist.is_lut net y then y else lutdom ()
  in
  let kinds = Array.of_list Gate.all in
  for _ = 1 to gates do
    let node =
      match Rng.int rng 4 with
      | 0 | 1 ->
        let g = kinds.(Rng.int rng (Array.length kinds)) in
        let a = pick () in
        let b = if g = Gate.Not then a else pick () in
        Netlist.gate net g a b
      | 2 ->
        (* arity-1 reencode: identity or negation of a classic view *)
        Netlist.lut net ~table:(if Rng.bool rng then 0b10 else 0b01) [| pick () |]
      | _ ->
        let arity = 2 + Rng.int rng 2 in
        let ins = Array.make arity (lutdom ()) in
        for i = 1 to arity - 1 do
          ins.(i) <- lutdom ()
        done;
        (* any truth table, including constant and degenerate ones — the
           builder canonicalises duplicates and respecialises the table *)
        Netlist.lut net ~table:(Rng.int rng (1 lsl (1 lsl arity))) ins
    in
    nodes := node :: !nodes
  done;
  List.iteri
    (fun i id -> if i < outputs then Netlist.mark_output net (Printf.sprintf "o%d" i) id)
    !nodes;
  net

(* Two arity-1 reencodes feeding three arity-2 cells over the same operand
   pair: five LUT cells, three blind rotations (the three cells share one
   rotation group). *)
let shared_lut_pair () =
  let net = Netlist.create ~hash_consing:false ~fold_constants:false () in
  let ra = Netlist.lut net ~table:0b10 [| Netlist.input net "a" |] in
  let rb = Netlist.lut net ~table:0b10 [| Netlist.input net "b" |] in
  List.iteri
    (fun i table -> Netlist.mark_output net (Printf.sprintf "o%d" i) (Netlist.lut net ~table [| ra; rb |]))
    [ 0x6; 0x8; 0xE ];
  net

let random ?(inputs = 4) ?(gates = 10) ?(outputs = 3) ~seed () =
  let rng = Rng.create ~seed () in
  let net = Netlist.create ~hash_consing:false ~fold_constants:false () in
  let nodes = ref [] in
  for i = 0 to inputs - 1 do
    nodes := Netlist.input net (Printf.sprintf "i%d" i) :: !nodes
  done;
  nodes := Netlist.const net (Rng.bool rng) :: !nodes;
  let pick () = List.nth !nodes (Rng.int rng (List.length !nodes)) in
  let kinds = Array.of_list Gate.all in
  for _ = 1 to gates do
    let g = kinds.(Rng.int rng (Array.length kinds)) in
    let a = pick () in
    let b = if g = Gate.Not then a else pick () in
    nodes := Netlist.gate net g a b :: !nodes
  done;
  List.iteri
    (fun i id -> if i < outputs then Netlist.mark_output net (Printf.sprintf "o%d" i) id)
    !nodes;
  net

(* Raw 128-bit instructions with chosen (a, b, tag) fields — lets the
   tests reach decoder paths [Binary.assemble] can never emit. *)
let craft insts =
  let buf = Buffer.create 64 in
  List.iter
    (fun (a, b, tag) ->
      let b64 = Int64.of_int b in
      let lo = Int64.logor (Int64.shift_left b64 4) (Int64.of_int (tag land 0xF)) in
      let hi =
        Int64.logor (Int64.shift_left (Int64.of_int a) 2) (Int64.shift_right_logical b64 60)
      in
      Buffer.add_int64_le buf lo;
      Buffer.add_int64_le buf hi)
    insts;
  Buffer.to_bytes buf
