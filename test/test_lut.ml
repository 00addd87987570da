(* Exhaustive differential suite for the programmable LUT cells.

   Every 2-input (16 tables) and 3-input (256 tables) boolean function goes
   through the LUT cells and is compared against plain evaluation, under
   both transform backends.  The 3-input exhaustive sweep rides the
   multi-value path (one blind rotation serves all 256 tables per input
   combination); the direct lut2/lut3 entry points are exercised
   exhaustively for arity 2 and on a structured sample for arity 3, and
   are checked bit-identical to the multi-value outputs — the fused and
   unfused paths must agree ciphertext-for-ciphertext, which is what lets
   the executors memoize rotations. *)

module Rng = Pytfhe_util.Rng
open Pytfhe_tfhe

let transforms =
  [ ("fft", Pytfhe_fft.Transform.Fft); ("ntt", Pytfhe_fft.Transform.Ntt) ]

let keysets =
  List.map
    (fun (name, tr) ->
      (name, lazy (Gates.key_gen (Rng.create ~seed:4242 ()) (Params.with_transform Params.test tr))))
    transforms

let keys name = Lazy.force (List.assoc name keysets)

let bits_of ~arity m = Array.init arity (fun i -> (m lsr (arity - 1 - i)) land 1 = 1)
let table_bit table m = (table lsr m) land 1 = 1

(* plain reference: bit m of the table, with operand 0 the message MSB *)
let plain_lut ~arity ~table ins =
  let m = Array.fold_left (fun acc b -> (acc * 2) + Bool.to_int b) 0 ins in
  ignore arity;
  table_bit table m

(* ------------------------------------------------------------------ *)
(* Arity 1: all 4 tables (includes the classic→lutdom reencode)        *)
(* ------------------------------------------------------------------ *)

let test_lut1_exhaustive tr () =
  let sk, ck = keys tr in
  let rng = Rng.create ~seed:11 () in
  for table = 0 to 3 do
    List.iter
      (fun v ->
        let c = Gates.encrypt_bit rng sk v in
        let out = Gates.lut1 ck ~table c in
        Alcotest.(check bool)
          (Printf.sprintf "lut1 table=%d v=%b" table v)
          (table_bit table (Bool.to_int v))
          (Gates.decrypt_lut_bit sk out))
      [ false; true ]
  done

(* ------------------------------------------------------------------ *)
(* Arity 2: all 16 functions, direct and multi-value                   *)
(* ------------------------------------------------------------------ *)

let test_lut2_exhaustive tr () =
  let sk, ck = keys tr in
  let rng = Rng.create ~seed:22 () in
  let all16 = Array.init 16 Fun.id in
  for m = 0 to 3 do
    let ins = bits_of ~arity:2 m in
    let ca = Gates.encrypt_lut_bit rng sk ins.(0) in
    let cb = Gates.encrypt_lut_bit rng sk ins.(1) in
    (* one rotation, 16 outputs *)
    let multi = Gates.lut2_multi ck ~tables:all16 ca cb in
    Array.iteri
      (fun table out ->
        Alcotest.(check bool)
          (Printf.sprintf "lut2_multi table=%#x m=%d" table m)
          (plain_lut ~arity:2 ~table ins)
          (Gates.decrypt_lut_bit sk out))
      multi;
    (* every table through the direct entry point too, on the same
       ciphertexts: must agree with plain eval AND be bit-identical to the
       multi-value output (the rotation is deterministic). *)
    for table = 0 to 15 do
      let direct = Gates.lut2 ck ~table ca cb in
      Alcotest.(check bool)
        (Printf.sprintf "lut2 table=%#x m=%d" table m)
        (plain_lut ~arity:2 ~table ins)
        (Gates.decrypt_lut_bit sk direct);
      Alcotest.(check bool)
        (Printf.sprintf "lut2 direct ≡ multi table=%#x m=%d" table m)
        true
        (direct = multi.(table))
    done
  done

(* ------------------------------------------------------------------ *)
(* Arity 3: all 256 functions via multi-value, structured direct sample *)
(* ------------------------------------------------------------------ *)

let lut3_sample_tables =
  (* identically-false/true, single-minterm edges, majority, 3-way parity,
     mux(a;b,c), and a couple of dense irregular tables *)
  [| 0x00; 0xFF; 0x01; 0x80; 0xE8; 0x96; 0xCA; 0x6B; 0xB2; 0x17 |]

let test_lut3_exhaustive tr () =
  let sk, ck = keys tr in
  let rng = Rng.create ~seed:33 () in
  let all256 = Array.init 256 Fun.id in
  for m = 0 to 7 do
    let ins = bits_of ~arity:3 m in
    let ca = Gates.encrypt_lut_bit rng sk ins.(0) in
    let cb = Gates.encrypt_lut_bit rng sk ins.(1) in
    let cc = Gates.encrypt_lut_bit rng sk ins.(2) in
    let multi = Gates.lut3_multi ck ~tables:all256 ca cb cc in
    Array.iteri
      (fun table out ->
        if Gates.decrypt_lut_bit sk out <> plain_lut ~arity:3 ~table ins then
          Alcotest.failf "lut3_multi table=%#x m=%d wrong" table m)
      multi;
    Array.iter
      (fun table ->
        let direct = Gates.lut3 ck ~table ca cb cc in
        Alcotest.(check bool)
          (Printf.sprintf "lut3 table=%#x m=%d" table m)
          (plain_lut ~arity:3 ~table ins)
          (Gates.decrypt_lut_bit sk direct);
        Alcotest.(check bool)
          (Printf.sprintf "lut3 direct ≡ multi table=%#x m=%d" table m)
          true
          (direct = multi.(table)))
      lut3_sample_tables
  done

(* ------------------------------------------------------------------ *)
(* Indicator extraction: the staircase really is one-hot               *)
(* ------------------------------------------------------------------ *)

let test_indicators_one_hot tr () =
  let sk, ck = keys tr in
  let rng = Rng.create ~seed:44 () in
  let p = ck.Gates.cloud_params in
  let bt = Bootstrap.batch_create p ~cap:1 in
  let slots = Lwe_array.create ~n:(Params.extracted_n p) 8 in
  for m = 0 to 7 do
    let ins = bits_of ~arity:3 m in
    let ops = Array.map (fun b -> Gates.encrypt_lut_bit rng sk b) ins in
    let row = Gates.lut_combine ~n:p.Params.lwe.n ~arity:3 ops in
    Bootstrap.batch_rows_into p bt ck.Gates.bootstrap_key [| Bootstrap.Job_lut 8 |]
      ~src:(Lwe_array.of_samples ~n:p.Params.lwe.n [| row |])
      ~dst:slots;
    let ind = Lwe_array.to_samples slots in
    Array.iteri
      (fun j c ->
        let v = Torus.mod_switch_from (Lwe.phase sk.Gates.extracted_key c) ~msize:16 in
        Alcotest.(check int)
          (Printf.sprintf "indicator %d of message %d" j m)
          (if j = m then 1 else 0)
          v)
      ind
  done

(* ------------------------------------------------------------------ *)
(* Encoding bridges and chains                                         *)
(* ------------------------------------------------------------------ *)

let test_lutdom_roundtrip_and_views tr () =
  let sk, ck = keys tr in
  let rng = Rng.create ~seed:55 () in
  List.iter
    (fun v ->
      let l = Gates.encrypt_lut_bit rng sk v in
      Alcotest.(check bool) "lutdom roundtrip" v (Gates.decrypt_lut_bit sk l);
      (* lutdom → classic view is exact and feeds classic machinery *)
      Alcotest.(check bool) "classic view" v (Gates.decrypt_bit sk (Gates.lut_to_classic l));
      (* classic → lutdom costs one bootstrap *)
      let c = Gates.encrypt_bit rng sk v in
      let re = Gates.reencode ck c in
      Alcotest.(check bool) "reencode" v (Gates.decrypt_lut_bit sk re);
      (* round the full loop: classic → lutdom → classic gate input *)
      let back = Gates.lut_to_classic re in
      let other = Gates.encrypt_bit rng sk true in
      Alcotest.(check bool) "view into AND gate" (v && true)
        (Gates.decrypt_bit sk (Gates.and_gate ck back other));
      Alcotest.(check bool) "trivial lutdom constant" v
        (Gates.decrypt_lut_bit sk (Gates.lut_constant ck v)))
    [ false; true ]

let test_lut_chain_noise tr () =
  (* A full-adder chain in lutdom: each stage is one shared-input rotation
     pair (sum = parity 0x96, carry = majority 0xE8) whose carry feeds the
     next stage — 12 stages deep, checking lutdom outputs keep enough
     margin to feed further LUT cells indefinitely. *)
  let sk, ck = keys tr in
  let rng = Rng.create ~seed:66 () in
  let carry = ref (Gates.encrypt_lut_bit rng sk false) in
  let pcarry = ref false in
  for step = 1 to 12 do
    let a = Rng.bool rng and b = Rng.bool rng in
    let ca = Gates.encrypt_lut_bit rng sk a in
    let cb = Gates.encrypt_lut_bit rng sk b in
    let outs = Gates.lut3_multi ck ~tables:[| 0x96; 0xE8 |] ca cb !carry in
    let psum = a <> b <> !pcarry in
    pcarry := Bool.to_int a + Bool.to_int b + Bool.to_int !pcarry >= 2;
    Alcotest.(check bool)
      (Printf.sprintf "step %d sum" step)
      psum
      (Gates.decrypt_lut_bit sk outs.(0));
    Alcotest.(check bool)
      (Printf.sprintf "step %d carry" step)
      !pcarry
      (Gates.decrypt_lut_bit sk outs.(1));
    carry := outs.(1)
  done

(* ------------------------------------------------------------------ *)
(* Batched cells are bit-identical to the keyset-level cells           *)
(* ------------------------------------------------------------------ *)

let test_batch_cells_bit_exact tr () =
  let sk, ck = keys tr in
  let rng = Rng.create ~seed:77 () in
  let p = ck.Gates.cloud_params in
  let n = p.Params.lwe.n in
  let classic = Gates.encrypt_bit rng sk true in
  let other = Gates.encrypt_bit rng sk false in
  let l1 = Gates.encrypt_lut_bit rng sk true in
  let l2 = Gates.encrypt_lut_bit rng sk false in
  let l3 = Gates.encrypt_lut_bit rng sk true in
  let lut2 tables a b = Array.map (fun table -> Gates.lut2 ck ~table a b) tables in
  (* One launch: a classic gate beside arity-1 cells and arity-2/3 groups,
     each row with its combined input and the one-cell keyset-level calls
     it must match. *)
  let rows =
    [|
      ( Gates.gate_cell,
        Gates.combine ~n Gates.xor_plan classic other,
        [| Gates.xor_gate ck classic other |] );
      (Gates.sign_cell ~table:0b10, classic, [| Gates.lut1 ck ~table:0b10 classic |]);
      ( Gates.Cell_lut { arity = 2; tables = [| 0x6; 0x8; 0xE |] },
        Gates.lut_combine ~n ~arity:2 [| l1; l2 |],
        lut2 [| 0x6; 0x8; 0xE |] l1 l2 );
      (Gates.sign_cell ~table:0b01, classic, [| Gates.lut1 ck ~table:0b01 classic |]);
      ( Gates.Cell_lut { arity = 3; tables = [| 0x96; 0xE8 |] },
        Gates.lut_combine ~n ~arity:3 [| l1; l2; l3 |],
        Array.map (fun table -> Gates.lut3 ck ~table l1 l2 l3) [| 0x96; 0xE8 |] );
      ( Gates.Cell_lut { arity = 2; tables = [| 0x1 |] },
        Gates.lut_combine ~n ~arity:2 [| l3; l1 |],
        lut2 [| 0x1 |] l3 l1 );
    |]
  in
  let bc = Gates.batch_context ck ~cap:8 in
  let batched =
    Gates.bootstrap_batch bc
      (Array.map (fun (cell, _, _) -> cell) rows)
      (Lwe_array.of_samples ~n (Array.map (fun (_, combined, _) -> combined) rows))
  in
  Alcotest.(check int) "one launch" 1 (Gates.batch_counters bc).Gates.batch_launches;
  let scalar = Array.concat (Array.to_list (Array.map (fun (_, _, outs) -> outs) rows)) in
  Alcotest.(check int) "output count" (Array.length scalar) (Lwe_array.length batched);
  Array.iteri
    (fun i out ->
      Alcotest.(check bool)
        (Printf.sprintf "output %d bit-identical" i)
        true
        (Lwe_array.get batched i = out))
    scalar;
  (* sanity: the decrypted semantics too *)
  Alcotest.(check bool) "xor(1,0)" true (Gates.decrypt_bit sk (Lwe_array.get batched 0));
  Alcotest.(check bool) "reencode true" true (Gates.decrypt_lut_bit sk (Lwe_array.get batched 1));
  Alcotest.(check bool) "xor2(1,0)" true (Gates.decrypt_lut_bit sk (Lwe_array.get batched 2))

(* ------------------------------------------------------------------ *)
(* Noise model: margins priced, default_128 honestly flagged           *)
(* ------------------------------------------------------------------ *)

let test_noise_lut_model () =
  Alcotest.(check (float 1e-12)) "arity-3 margin is 1/32" (1.0 /. 32.0) (Noise.lut_margin ~msize:8);
  Alcotest.(check (float 1e-12)) "arity-2 margin is 1/16" (1.0 /. 16.0) (Noise.lut_margin ~msize:4);
  (* the test parameter set affords LUT cells at every arity *)
  List.iter
    (fun arity ->
      match Noise.check_lut Params.test ~arity with
      | `Ok prob ->
        Alcotest.(check bool)
          (Printf.sprintf "test params arity %d negligible" arity)
          true (prob < 2.0 ** -32.0)
      | `Unsafe prob -> Alcotest.failf "test params arity %d unsafe: %g" arity prob)
    [ 1; 2; 3 ];
  (* the narrow default_128 LWE budget cannot pay for 8 message slots:
     the model must say so rather than pretend *)
  (match Noise.check_lut Params.default_128 ~arity:3 with
  | `Unsafe _ -> ()
  | `Ok prob -> Alcotest.failf "default_128 arity 3 unexpectedly ok: %g" prob);
  (* monotone in arity: more slots, less margin, more failure *)
  let p2 = Noise.lut_failure_probability Params.test ~arity:2 in
  let p3 = Noise.lut_failure_probability Params.test ~arity:3 in
  Alcotest.(check bool) "arity 3 riskier than arity 2" true (p3 >= p2)

let () =
  let cases name case speed =
    List.map
      (fun (tr, _) -> Alcotest.test_case (Printf.sprintf "%s [%s]" name tr) speed (case tr))
      transforms
  in
  Alcotest.run "lut"
    [
      ("lut1", cases "all 4 tables" test_lut1_exhaustive `Slow);
      ("lut2", cases "all 16 functions, direct + multi" test_lut2_exhaustive `Slow);
      ("lut3", cases "all 256 functions via multi-value" test_lut3_exhaustive `Slow);
      ("indicators", cases "staircase is one-hot" test_indicators_one_hot `Slow);
      ("encoding", cases "lutdom bridges" test_lutdom_roundtrip_and_views `Slow);
      ("chains", cases "12-stage lutdom full adder" test_lut_chain_noise `Slow);
      ("batch", cases "batched cells bit-exact" test_batch_cells_bit_exact `Slow);
      ("noise", [ Alcotest.test_case "margins and limits" `Quick test_noise_lut_model ]);
    ]
