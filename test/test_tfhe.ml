module Rng = Pytfhe_util.Rng
open Pytfhe_tfhe

let params = Params.test

(* One shared keyset: key generation dominates the cost of this suite. *)
let keys = lazy (Gates.key_gen (Rng.create ~seed:1001 ()) params)
let secret () = fst (Lazy.force keys)
let cloud () = snd (Lazy.force keys)

(* A keyset small enough to decode hundreds of times. *)
let tiny =
  Params.custom ~name:"tiny" ~n:4 ~lwe_stdev:(2.0 ** -20.0) ~ring_n:64 ~k:1
    ~tlwe_stdev:(2.0 ** -30.0) ~l:2 ~bg_bit:6 ~ks_t:2 ~ks_base_bit:2 ()

(* ------------------------------------------------------------------ *)
(* Torus arithmetic                                                    *)
(* ------------------------------------------------------------------ *)

let test_torus_roundtrip () =
  List.iter
    (fun d ->
      let t = Torus.of_double d in
      let back = Torus.to_double t in
      let diff = Float.abs (d -. back) in
      let diff = Float.min diff (1.0 -. diff) in
      Alcotest.(check bool) "roundtrip" true (diff < 1e-9))
    [ 0.0; 0.125; -0.125; 0.25; 0.4999; -0.4999; 0.3333 ]

let test_torus_group_laws () =
  let rng = Rng.create ~seed:2 () in
  for _ = 1 to 200 do
    let a = Rng.bits32 rng and b = Rng.bits32 rng in
    Alcotest.(check int) "a+b-b=a" a (Torus.sub (Torus.add a b) b);
    Alcotest.(check int) "a + (-a) = 0" 0 (Torus.add a (Torus.neg a));
    Alcotest.(check int) "commutes" (Torus.add a b) (Torus.add b a)
  done

let test_torus_mod_switch () =
  for msize = 2 to 16 do
    for mu = 0 to msize - 1 do
      let t = Torus.mod_switch_to mu ~msize in
      Alcotest.(check int) "mod switch roundtrip" mu (Torus.mod_switch_from t ~msize)
    done
  done

let test_torus_mod_switch_rounds_noise () =
  let msize = 8 in
  let t = Torus.mod_switch_to 3 ~msize in
  let noisy = Torus.add t (Torus.of_double 0.01) in
  Alcotest.(check int) "small noise rounds away" 3 (Torus.mod_switch_from noisy ~msize);
  Alcotest.(check int) "approx phase recentres" t (Torus.approx_phase noisy ~msize)

let test_torus_mul_int () =
  let eighth = Torus.mod_switch_to 1 ~msize:8 in
  Alcotest.(check int) "2 * 1/8 = 1/4" (Torus.mod_switch_to 1 ~msize:4) (Torus.mul_int 2 eighth);
  Alcotest.(check int) "-1 * t = neg t" (Torus.neg eighth) (Torus.mul_int (-1) eighth);
  Alcotest.(check int) "8 * 1/8 = 0" 0 (Torus.mul_int 8 eighth)

let qcheck_torus_signed_roundtrip =
  QCheck.Test.make ~name:"torus signed representative roundtrips" ~count:1000
    QCheck.(int_range (-0x7FFFFFFF) 0x7FFFFFFF)
    (fun v -> Torus.to_signed (Torus.of_signed v) = v)


let test_params_custom_and_validate () =
  let good =
    Params.custom ~name:"custom" ~n:64 ~lwe_stdev:(2.0 ** -20.0) ~ring_n:256 ~k:1
      ~tlwe_stdev:(2.0 ** -30.0) ~l:3 ~bg_bit:6 ~ks_t:12 ~ks_base_bit:2 ()
  in
  Alcotest.(check bool) "custom validates" true (Params.validate good = Ok ());
  Alcotest.(check bool) "matches shipped test set" true (Params.equal good { Params.test with Params.name = "custom" });
  let rejects label f = Alcotest.(check bool) label true (try ignore (f ()); false with Invalid_argument _ -> true) in
  rejects "non-power-of-two N" (fun () ->
      Params.custom ~name:"bad" ~n:64 ~lwe_stdev:1e-5 ~ring_n:300 ~k:1 ~tlwe_stdev:1e-8 ~l:3
        ~bg_bit:6 ~ks_t:8 ~ks_base_bit:2 ());
  rejects "gadget too wide" (fun () ->
      Params.custom ~name:"bad" ~n:64 ~lwe_stdev:1e-5 ~ring_n:256 ~k:1 ~tlwe_stdev:1e-8 ~l:8
        ~bg_bit:5 ~ks_t:8 ~ks_base_bit:2 ());
  rejects "negative noise" (fun () ->
      Params.custom ~name:"bad" ~n:64 ~lwe_stdev:(-1.0) ~ring_n:256 ~k:1 ~tlwe_stdev:1e-8 ~l:3
        ~bg_bit:6 ~ks_t:8 ~ks_base_bit:2 ())

let test_params_shipped_sets_validate () =
  List.iter
    (fun p ->
      Alcotest.(check bool) (p.Params.name ^ " validates") true (Params.validate p = Ok ()))
    [ Params.test; Params.default_128 ]

(* ------------------------------------------------------------------ *)
(* Polynomials                                                         *)
(* ------------------------------------------------------------------ *)

let random_torus_poly rng n = Array.init n (fun _ -> Rng.bits32 rng)

let test_poly_mul_by_xai_identity () =
  let rng = Rng.create ~seed:3 () in
  let p = random_torus_poly rng 32 in
  Alcotest.(check (array int)) "X^0 is identity" p (Poly.mul_by_xai 0 p)

let test_poly_mul_by_xai_full_turn () =
  let rng = Rng.create ~seed:4 () in
  let n = 32 in
  let p = random_torus_poly rng n in
  (* X^N ≡ −1, X^{2N} ≡ 1 — but exponent 2N is out of domain, so check
     composition: rotating by a then by 2N−a returns the original. *)
  let a = 13 in
  let rotated = Poly.mul_by_xai (2 * n - a) (Poly.mul_by_xai a p) in
  Alcotest.(check (array int)) "X^a then X^{2N-a}" p rotated

let test_poly_mul_by_xai_negation () =
  let rng = Rng.create ~seed:5 () in
  let n = 32 in
  let p = random_torus_poly rng n in
  Alcotest.(check (array int)) "X^N negates" (Poly.neg p) (Poly.mul_by_xai n p)

let test_poly_mul_by_xai_composition () =
  let rng = Rng.create ~seed:6 () in
  let n = 64 in
  let p = random_torus_poly rng n in
  List.iter
    (fun (a, b) ->
      let lhs = Poly.mul_by_xai ((a + b) mod (2 * n)) p in
      let rhs = Poly.mul_by_xai a (Poly.mul_by_xai b p) in
      Alcotest.(check (array int)) "rotation composes" lhs rhs)
    [ (1, 2); (17, 40); (63, 64); (100, 27); (5, 123) ]

let test_poly_mul_xai_minus_one () =
  let rng = Rng.create ~seed:7 () in
  let n = 32 in
  let p = random_torus_poly rng n in
  let a = 9 in
  let expected = Poly.sub (Poly.mul_by_xai a p) p in
  Alcotest.(check (array int)) "(X^a - 1)p" expected (Poly.mul_by_xai_minus_one a p)

let test_poly_fft_mul_matches_naive () =
  let rng = Rng.create ~seed:8 () in
  List.iter
    (fun n ->
      let ip = Array.init n (fun _ -> Rng.int rng 64 - 32) in
      let tp = random_torus_poly rng n in
      let expected = Poly.mul_int_torus_naive ip tp in
      let got = Poly.mul_int_torus ip tp in
      Array.iteri
        (fun i e ->
          if Torus.distance e got.(i) > 1e-7 then
            Alcotest.failf "n=%d coeff %d: naive %d fft %d" n i e got.(i))
        expected)
    [ 16; 64; 256 ]

let test_poly_mul_by_binary () =
  (* Multiplying by the constant polynomial 1 is the identity. *)
  let rng = Rng.create ~seed:9 () in
  let n = 64 in
  let one = Array.make n 0 in
  one.(0) <- 1;
  let tp = random_torus_poly rng n in
  let got = Poly.mul_int_torus one tp in
  Array.iteri
    (fun i e ->
      if Torus.distance e got.(i) > 1e-7 then Alcotest.failf "identity product broke at %d" i)
    tp

(* ------------------------------------------------------------------ *)
(* LWE                                                                 *)
(* ------------------------------------------------------------------ *)

let test_lwe_encrypt_decrypt () =
  let rng = Rng.create ~seed:10 () in
  let key = Lwe.key_gen rng ~n:128 in
  for mu = 0 to 7 do
    let c = Lwe.encrypt rng key ~stdev:1e-7 (Torus.mod_switch_to mu ~msize:8) in
    Alcotest.(check int) "decrypts" mu (Lwe.decrypt key ~msize:8 c)
  done

let test_lwe_homomorphic_add () =
  let rng = Rng.create ~seed:11 () in
  let key = Lwe.key_gen rng ~n:128 in
  let enc mu = Lwe.encrypt rng key ~stdev:1e-8 (Torus.mod_switch_to mu ~msize:16) in
  let c = Lwe.add (enc 3) (enc 5) in
  Alcotest.(check int) "3+5=8" 8 (Lwe.decrypt key ~msize:16 c);
  let d = Lwe.sub (enc 9) (enc 4) in
  Alcotest.(check int) "9-4=5" 5 (Lwe.decrypt key ~msize:16 d)

let test_lwe_trivial_and_neg () =
  let rng = Rng.create ~seed:12 () in
  let key = Lwe.key_gen rng ~n:64 in
  let t = Lwe.trivial ~n:64 (Torus.mod_switch_to 1 ~msize:8) in
  Alcotest.(check int) "trivial decrypts under any key" 1 (Lwe.decrypt key ~msize:8 t);
  let n = Lwe.neg t in
  Alcotest.(check int) "neg" 7 (Lwe.decrypt key ~msize:8 n)

let test_lwe_scale () =
  let rng = Rng.create ~seed:13 () in
  let key = Lwe.key_gen rng ~n:64 in
  let c = Lwe.encrypt rng key ~stdev:1e-9 (Torus.mod_switch_to 1 ~msize:16) in
  Alcotest.(check int) "3 * 1/16" 3 (Lwe.decrypt key ~msize:16 (Lwe.scale 3 c))

let test_lwe_ciphertext_bytes () =
  (* The paper quotes 2.46 KB for a TFHE ciphertext: (630+1)·4 bytes. *)
  Alcotest.(check int) "2.46 KB" 2524 (Lwe.ciphertext_bytes ~n:630)

let test_lwe_noise_magnitude () =
  let rng = Rng.create ~seed:14 () in
  let key = Lwe.key_gen rng ~n:128 in
  let stdev = Params.test.Params.lwe.lwe_stdev in
  let worst = ref 0.0 in
  for _ = 1 to 200 do
    let c = Lwe.encrypt rng key ~stdev Torus.zero in
    let e = Float.abs (Torus.to_double (Lwe.phase key c)) in
    if e > !worst then worst := e
  done;
  Alcotest.(check bool) "noise stays tiny" true (!worst < 16.0 *. stdev)

(* ------------------------------------------------------------------ *)
(* TLWE / TGSW                                                         *)
(* ------------------------------------------------------------------ *)

let test_tlwe_phase_recovers_message () =
  let rng = Rng.create ~seed:15 () in
  let key = Tlwe.key_gen rng params in
  let n = params.Params.tlwe.ring_n in
  let msg = Array.init n (fun i -> Torus.mod_switch_to (i mod 8) ~msize:8) in
  let c = Tlwe.encrypt_poly rng params key msg in
  let ph = Tlwe.phase key c in
  Array.iteri
    (fun i m ->
      if Torus.distance m ph.(i) > 1e-4 then Alcotest.failf "phase off at %d" i)
    msg

(* Read accumulator row 0 back as its phases: extract every position
   under the extracted key. *)
let row_phases p ekey (row : Trlwe_array.t) =
  let dst = Lwe_array.create ~n:(Params.extracted_n p) 1 in
  Array.init p.Params.tlwe.Params.ring_n (fun pos ->
      Trlwe_array.extract_row_into row ~row:0 ~pos dst ~drow:0;
      Lwe.phase ekey (Lwe_array.get dst 0))

(* A trivial accumulator row carrying [msg]. *)
let trivial_row p msg =
  let row = Trlwe_array.create p ~cap:1 in
  Trlwe_array.rotate_body_from row 0 0 msg;
  row

let test_tlwe_extract () =
  let rng = Rng.create ~seed:16 () in
  let key = Tlwe.key_gen rng params in
  let n = params.Params.tlwe.ring_n in
  let msg = Array.init n (fun i -> Torus.mod_switch_to (i mod 8) ~msize:8) in
  (* One CMux step under an encryption of 1 rotates the trivial row by X^3
     and leaves non-trivial masks, so extraction has a key to honour. *)
  let row = trivial_row params msg in
  let g = Tgsw.to_fft params (Tgsw.encrypt_int rng params key 1) in
  Tgsw.cmux_rotate_row_into params (Tgsw.workspace_create params) g 3 row ~row:0;
  let expected = Poly.mul_by_xai 3 msg in
  let ekey = Tlwe.extract_key key in
  let dst = Lwe_array.create ~n:(Params.extracted_n params) 1 in
  List.iter
    (fun pos ->
      Trlwe_array.extract_row_into row ~row:0 ~pos dst ~drow:0;
      Alcotest.(check int)
        (Printf.sprintf "extracted coeff %d" pos)
        (Torus.mod_switch_from expected.(pos) ~msize:8)
        (Lwe.decrypt ekey ~msize:8 (Lwe_array.get dst 0)))
    [ 0; 1; 2; 3; n - 1 ]

let test_tlwe_add_sub_roundtrip () =
  let rng = Rng.create ~seed:17 () in
  let key = Tlwe.key_gen rng params in
  let a = Tlwe.zero_sample rng params key in
  let b = Tlwe.encrypt_poly rng params key (Array.make params.Params.tlwe.ring_n 12345678) in
  let c = Tlwe.copy a in
  Tlwe.add_to c b;
  Tlwe.sub_to c b;
  let pa = Tlwe.phase key a and pc = Tlwe.phase key c in
  Array.iteri
    (fun i x ->
      if Torus.distance x pc.(i) > 1e-9 then Alcotest.failf "add/sub not inverse at %d" i)
    pa

let test_tgsw_external_product_zero_one () =
  let rng = Rng.create ~seed:18 () in
  let key = Tlwe.key_gen rng params in
  let ekey = Tlwe.extract_key key in
  let ws = Tgsw.workspace_create params in
  let n = params.Params.tlwe.ring_n in
  let msg = Array.init n (fun i -> Torus.mod_switch_to (i mod 4) ~msize:4) in
  let a = 5 in
  (* acc + g ⊡ ((X^a − 1)·acc): the external product by m ∈ {0, 1} adds
     m·(X^a − 1)·acc, so every phase reads X^a·msg for m = 1 and msg for
     m = 0. *)
  let check m expected =
    let row = trivial_row params msg in
    let g = Tgsw.to_fft params (Tgsw.encrypt_int rng params key m) in
    Tgsw.cmux_rotate_row_into params ws g a row ~row:0;
    Array.iteri
      (fun i v ->
        if Torus.distance expected.(i) v > 1e-3 then Alcotest.failf "m=%d phase off at %d" m i)
      (row_phases params ekey row)
  in
  check 1 (Poly.mul_by_xai a msg);
  check 0 msg

let test_tgsw_cmux_selects () =
  let rng = Rng.create ~seed:19 () in
  let key = Tlwe.key_gen rng params in
  let ekey = Tlwe.extract_key key in
  let ws = Tgsw.workspace_create params in
  let n = params.Params.tlwe.ring_n in
  let quarter = Torus.mod_switch_to 1 ~msize:4 in
  (* The first step (under an encryption of 1) turns the constant 1/4 row
     into an encryption of X^N·(1/4) = −1/4; the second CMux then selects
     X^N·acc = +1/4 for bit 1 and keeps −1/4 for bit 0. *)
  let check bit expected =
    let row = trivial_row params (Array.make n quarter) in
    let g1 = Tgsw.to_fft params (Tgsw.encrypt_int rng params key 1) in
    Tgsw.cmux_rotate_row_into params ws g1 n row ~row:0;
    let g = Tgsw.to_fft params (Tgsw.encrypt_int rng params key bit) in
    Tgsw.cmux_rotate_row_into params ws g n row ~row:0;
    let ph = row_phases params ekey row in
    if Torus.distance expected ph.(0) > 1e-3 then
      Alcotest.failf "cmux bit=%d selected wrong branch" bit
  in
  check 1 quarter;
  check 0 (Torus.neg quarter)

let test_tgsw_decompose_reconstructs () =
  let rng = Rng.create ~seed:20 () in
  let key = Tlwe.key_gen rng params in
  let c = Tlwe.encrypt_poly rng params key (Array.make params.Params.tlwe.ring_n 0x1234567) in
  let digits = Tgsw.decompose params c in
  let l = params.Params.tgsw.l in
  let bg_bit = params.Params.tgsw.bg_bit in
  let half_bg = 1 lsl (bg_bit - 1) in
  (* Every digit must be in [−Bg/2, Bg/2) and the weighted recombination
     must approximate the original coefficient to within the dropped
     precision. *)
  Array.iter
    (Array.iter (fun d ->
         if d < -half_bg || d >= half_bg then Alcotest.failf "digit %d out of range" d))
    digits;
  let polys = Array.append c.Tlwe.mask [| c.Tlwe.body |] in
  Array.iteri
    (fun comp poly ->
      Array.iteri
        (fun t coeff ->
          let recon = ref 0 in
          for j = 0 to l - 1 do
            let base_pow = 1 lsl (32 - ((j + 1) * bg_bit)) in
            recon := Torus.add !recon (Torus.mul_int digits.((comp * l) + j).(t) base_pow)
          done;
          if Torus.distance coeff !recon > 1.0 /. float_of_int (1 lsl ((l * bg_bit) - 1)) then
            Alcotest.failf "recombination off at comp %d coeff %d" comp t)
        poly)
    polys

(* ------------------------------------------------------------------ *)
(* Bootstrapping, key switching and gates                              *)
(* ------------------------------------------------------------------ *)

let test_keyswitch_preserves_message () =
  let sk = secret () and ck = cloud () in
  let rng = Rng.create ~seed:21 () in
  let mu = Torus.mod_switch_to 1 ~msize:8 in
  let big = Lwe.encrypt rng sk.Gates.extracted_key ~stdev:1e-8 mu in
  let small = Keyswitch.apply ck.Gates.keyswitch_key big in
  Alcotest.(check int) "message survives" 1 (Lwe.decrypt sk.Gates.lwe_key ~msize:8 small)

let test_bootstrap_sign () =
  let sk = secret () and ck = cloud () in
  let rng = Rng.create ~seed:22 () in
  let mu = Params.mu params in
  let check input expected =
    let c = Lwe.encrypt rng sk.Gates.lwe_key ~stdev:params.Params.lwe.lwe_stdev input in
    let boosted = Bootstrap.bootstrap_wo_keyswitch params ck.Gates.bootstrap_key ~mu c in
    let got = Torus.to_double (Lwe.phase sk.Gates.extracted_key boosted) > 0.0 in
    Alcotest.(check bool) "bootstrap sign" expected got
  in
  check (Torus.mod_switch_to 1 ~msize:8) true;
  check (Torus.mod_switch_to 7 ~msize:8) false;
  check (Torus.mod_switch_to 1 ~msize:4) true;
  check (Torus.mod_switch_to 3 ~msize:4) false

let test_bootstrap_reduces_noise () =
  let sk = secret () and ck = cloud () in
  let rng = Rng.create ~seed:23 () in
  let mu = Params.mu params in
  (* Push input noise near the decryption margin, then check the refreshed
     ciphertext is much cleaner than 1/16. *)
  let noisy = Lwe.encrypt rng sk.Gates.lwe_key ~stdev:0.01 mu in
  let refreshed = Bootstrap.bootstrap_wo_keyswitch params ck.Gates.bootstrap_key ~mu noisy in
  let phase = Torus.to_double (Lwe.phase sk.Gates.extracted_key refreshed) in
  Alcotest.(check bool) "refreshed phase near +1/8" true (Float.abs (phase -. 0.125) < 0.02)

let truth_table gate spec () =
  let sk = secret () and ck = cloud () in
  let rng = Rng.create ~seed:24 () in
  List.iter
    (fun (a, b) ->
      let ca = Gates.encrypt_bit rng sk a in
      let cb = Gates.encrypt_bit rng sk b in
      let got = Gates.decrypt_bit sk (gate ck ca cb) in
      Alcotest.(check bool) (Printf.sprintf "(%b,%b)" a b) (spec a b) got)
    [ (false, false); (false, true); (true, false); (true, true) ]

let test_not_gate () =
  let sk = secret () and ck = cloud () in
  let rng = Rng.create ~seed:25 () in
  List.iter
    (fun v ->
      let c = Gates.encrypt_bit rng sk v in
      Alcotest.(check bool) "not" (not v) (Gates.decrypt_bit sk (Gates.not_gate ck c)))
    [ true; false ]

let test_constant_gate () =
  let sk = secret () and ck = cloud () in
  List.iter
    (fun v -> Alcotest.(check bool) "constant" v (Gates.decrypt_bit sk (Gates.constant ck v)))
    [ true; false ]

let test_mux_gate () =
  let sk = secret () and ck = cloud () in
  let rng = Rng.create ~seed:26 () in
  List.iter
    (fun (s, x, y) ->
      let cs = Gates.encrypt_bit rng sk s in
      let cx = Gates.encrypt_bit rng sk x in
      let cy = Gates.encrypt_bit rng sk y in
      let got = Gates.decrypt_bit sk (Gates.mux_gate ck cs cx cy) in
      Alcotest.(check bool)
        (Printf.sprintf "mux(%b,%b,%b)" s x y)
        (if s then x else y)
        got)
    [
      (false, false, false); (false, false, true); (false, true, false); (false, true, true);
      (true, false, false); (true, false, true); (true, true, false); (true, true, true);
    ]

let test_gate_composition () =
  (* A 2-bit half adder on ciphertexts: sum = XOR, carry = AND, composed
     with further gates to check noise behaves across depth. *)
  let sk = secret () and ck = cloud () in
  let rng = Rng.create ~seed:27 () in
  List.iter
    (fun (a, b, c) ->
      let ca = Gates.encrypt_bit rng sk a in
      let cb = Gates.encrypt_bit rng sk b in
      let cc = Gates.encrypt_bit rng sk c in
      let s1 = Gates.xor_gate ck ca cb in
      let c1 = Gates.and_gate ck ca cb in
      let sum = Gates.xor_gate ck s1 cc in
      let c2 = Gates.and_gate ck s1 cc in
      let carry = Gates.or_gate ck c1 c2 in
      let expected_sum = (Bool.to_int a + Bool.to_int b + Bool.to_int c) land 1 = 1 in
      let expected_carry = Bool.to_int a + Bool.to_int b + Bool.to_int c >= 2 in
      Alcotest.(check bool) "full adder sum" expected_sum (Gates.decrypt_bit sk sum);
      Alcotest.(check bool) "full adder carry" expected_carry (Gates.decrypt_bit sk carry))
    [ (false, false, false); (true, false, true); (true, true, true); (false, true, false) ]

let test_gate_output_noise_margin () =
  let sk = secret () and ck = cloud () in
  let rng = Rng.create ~seed:28 () in
  let ca = Gates.encrypt_bit rng sk true in
  let cb = Gates.encrypt_bit rng sk true in
  let out = Gates.and_gate ck ca cb in
  let phase = Torus.to_double (Lwe.phase sk.Gates.lwe_key out) in
  Alcotest.(check bool) "phase within 1/16 of 1/8" true (Float.abs (phase -. 0.125) < 0.0625)


(* ------------------------------------------------------------------ *)
(* Serialization                                                       *)
(* ------------------------------------------------------------------ *)

module Wire = Pytfhe_util.Wire

let roundtrip write read v =
  let buf = Buffer.create 1024 in
  write buf v;
  read (Wire.reader_of_string (Buffer.contents buf))

let test_serialize_params () =
  List.iter
    (fun p ->
      let p' = roundtrip Params.write Params.read p in
      Alcotest.(check bool) "params roundtrip" true (Params.equal p p'))
    [ Params.test; Params.default_128 ]

let test_serialize_lwe_sample () =
  let rng = Rng.create ~seed:51 () in
  let key = Lwe.key_gen rng ~n:64 in
  let c = Lwe.encrypt rng key ~stdev:1e-8 (Torus.mod_switch_to 3 ~msize:8) in
  let c' = roundtrip Lwe.write_sample Lwe.read_sample c in
  Alcotest.(check int) "same decryption" 3 (Lwe.decrypt key ~msize:8 c');
  Alcotest.(check (array int)) "mask identical" c.Lwe.a c'.Lwe.a;
  Alcotest.(check int) "body identical" c.Lwe.b c'.Lwe.b

let test_serialize_lwe_key () =
  let rng = Rng.create ~seed:52 () in
  let key = Lwe.key_gen rng ~n:100 in
  let key' = roundtrip Lwe.write_key Lwe.read_key key in
  Alcotest.(check (array int)) "bits" key.Lwe.bits key'.Lwe.bits;
  (* a sample encrypted under the original decrypts under the reloaded key *)
  let c = Lwe.encrypt rng key ~stdev:1e-9 (Torus.mod_switch_to 5 ~msize:8) in
  Alcotest.(check int) "functional" 5 (Lwe.decrypt key' ~msize:8 c)

let test_serialize_keysets_functional () =
  (* Round-trip both keysets and run a real gate with the reloaded pair. *)
  let sk, ck = Lazy.force keys in
  let sk' = roundtrip Gates.write_secret_keyset Gates.read_secret_keyset sk in
  let ck' = roundtrip Gates.write_cloud_keyset Gates.read_cloud_keyset ck in
  let rng = Rng.create ~seed:53 () in
  List.iter
    (fun (a, b) ->
      let ca = Gates.encrypt_bit rng sk' a in
      let cb = Gates.encrypt_bit rng sk' b in
      let out = Gates.xor_gate ck' ca cb in
      Alcotest.(check bool) "gate through reloaded keys" (a <> b) (Gates.decrypt_bit sk' out))
    [ (true, false); (true, true) ]

(* The bootstrapping key's round trip is exact: every polynomial's
   spectrum, inverted to the torus word the block carries and transformed
   again as the reader does, comes back bit for bit — under both
   transforms, at [test] and on default-128's ring and gadget — and a
   re-read key writes the very block it was read from. *)
let test_key_round_trip_exact () =
  let d128 = Params.default_128 in
  let one_entry =
    Params.custom ~name:"one-entry" ~n:1 ~lwe_stdev:d128.Params.lwe.Params.lwe_stdev ~ring_n:1024
      ~k:1 ~tlwe_stdev:d128.Params.tlwe.Params.tlwe_stdev ~l:3 ~bg_bit:7 ~ks_t:8 ~ks_base_bit:2 ()
  in
  List.iter
    (fun (base, tr) ->
      let p = Params.with_transform base tr in
      let label = Printf.sprintf "%s/%s" p.Params.name (Pytfhe_fft.Transform.kind_name tr) in
      let rng = Rng.create ~seed:1301 () in
      let lwe_key = Lwe.key_gen rng ~n:p.Params.lwe.Params.n in
      let tlwe_key = Tlwe.key_gen rng p in
      Array.iter
        (fun bit ->
          Array.iter
            (fun (row : Tlwe.sample) ->
              Array.iter
                (fun poly ->
                  let d = Tgsw.forward_torus p poly in
                  let words = Array.map Torus.of_signed (Pytfhe_fft.Transform.backward_signed d) in
                  if Marshal.to_string (Tgsw.forward_torus p words) [] <> Marshal.to_string d []
                  then Alcotest.failf "%s: a spectrum did not survive its round trip" label)
                (Array.append row.mask [| row.body |]))
            (Tgsw.encrypt_int rng p tlwe_key bit).Tgsw.rows)
        lwe_key.Lwe.bits;
      let key = Bootstrap.key_gen rng p ~lwe_key ~tlwe_key in
      let block k =
        let buf = Buffer.create 4096 in
        Bootstrap.write buf k;
        Buffer.contents buf
      in
      let written = block key in
      Alcotest.(check bool) (label ^ ": re-read key writes its block") true
        (block (Bootstrap.read p (Wire.reader_of_string written)) = written))
    [
      (params, Pytfhe_fft.Transform.Fft);
      (params, Pytfhe_fft.Transform.Ntt);
      (one_entry, Pytfhe_fft.Transform.Fft);
      (one_entry, Pytfhe_fft.Transform.Ntt);
    ]

(* A secret keyset must match its own parameters: n LWE key bits and k
   binary ring polynomials of N coefficients. *)
let test_secret_keyset_rejects_wrong_shapes () =
  let sk = secret () in
  let n = params.Params.lwe.Params.n and ring_n = params.Params.tlwe.Params.ring_n in
  let bits = sk.Gates.lwe_key.Lwe.bits and poly = sk.Gates.tlwe_key.Tlwe.polys.(0) in
  let payload ~bits ~polys =
    let buf = Buffer.create 4096 in
    Wire.write_magic buf "SKST";
    Params.write buf params;
    Lwe.write_key buf { Lwe.key_n = Array.length bits; bits };
    Tlwe.write_key buf { Tlwe.polys };
    Buffer.contents buf
  in
  let reads s =
    match Gates.read_secret_keyset (Wire.reader_of_string s) with
    | _ -> true
    | exception Wire.Corrupt _ -> false
  in
  let two = Array.copy poly in
  two.(0) <- 2;
  List.iter
    (fun (label, ok, s) -> Alcotest.(check bool) label ok (reads s))
    [
      ("well-formed", true, payload ~bits ~polys:[| poly |]);
      ("LWE key one bit long", false, payload ~bits:(Array.append bits [| 1 |]) ~polys:[| poly |]);
      ("LWE key one bit short", false, payload ~bits:(Array.sub bits 0 (n - 1)) ~polys:[| poly |]);
      ("ring polynomial of N/2", false, payload ~bits ~polys:[| Array.sub poly 0 (ring_n / 2) |]);
      ("two ring polynomials at k = 1", false, payload ~bits ~polys:[| poly; poly |]);
      ("ring coefficient of 2", false, payload ~bits ~polys:[| two |]);
      ("no ring polynomials", false, payload ~bits ~polys:[||]);
    ]

let test_serialize_rejects_garbage () =
  Alcotest.(check bool) "corrupt keyset rejected" true
    (try
       ignore (Gates.read_cloud_keyset (Wire.reader_of_string "not a keyset at all"));
       false
     with Wire.Corrupt _ -> true)

(* A keyset decoder sizes nothing from a header alone: each crafted payload
   fails with [Wire.Corrupt] only, within memory bounded by what was sent
   rather than what it declares. *)
let test_keyset_decoders_bound_allocation () =
  let bytes build =
    let buf = Buffer.create 256 in
    build buf;
    Buffer.contents buf
  in
  let kswk words buf =
    Wire.write_magic buf "KSWK";
    Wire.write_i64 buf words
  in
  let refused =
    {
      params with
      Params.lwe = { params.Params.lwe with Params.n = 0 };
      tlwe = { params.Params.tlwe with Params.ring_n = 1 lsl 20 };
    }
  in
  (* k = 2^40 passes [Params.validate]; the BSKY length it declares is the
     wrapped product a multiplying check would accept. *)
  let huge_k = { params with Params.tlwe = { params.Params.tlwe with Params.k = 1 lsl 40 } } in
  let wrapped_words =
    let k = huge_k.Params.tlwe.Params.k in
    params.Params.lwe.Params.n * (k + 1) * params.Params.tgsw.Params.l * (k + 1)
    * params.Params.tlwe.Params.ring_n
  in
  let rng = Rng.create ~seed:97 () in
  let _, tiny_ck = Gates.key_gen rng tiny in
  let wrong_ks =
    Keyswitch.key_gen rng tiny ~in_key:(Lwe.key_gen rng ~n:8) ~out_key:(Lwe.key_gen rng ~n:4)
  in
  let keyswitch r = ignore (Keyswitch.read params r) and cloud r = ignore (Gates.read_cloud_keyset r) in
  let cases =
    [
      ( "KSWK declaring its whole table, none sent",
        keyswitch,
        bytes (kswk (Keyswitch.table_bytes params / 4)) );
      ("KSWK declaring 2^40 words", keyswitch, bytes (kswk (1 lsl 40)));
      ("KSWK declaring a negative length", keyswitch, bytes (kswk min_int));
      ( "TPRM with N = 3",
        (fun r -> ignore (Params.read r)),
        bytes (fun buf ->
            Params.write buf { params with Params.tlwe = { params.Params.tlwe with ring_n = 3 } })
      );
      (* A NaN deviation would pass a [<= 0] test and encrypt with no noise. *)
      ( "TPRM with a NaN noise deviation",
        (fun r -> ignore (Params.read r)),
        bytes (fun buf ->
            Params.write buf
              { params with Params.lwe = { params.Params.lwe with lwe_stdev = Float.nan } }) );
      ( "CKST with n = 0, N = 2^20 and no key rows",
        cloud,
        bytes (fun buf ->
            Wire.write_magic buf "CKST";
            Params.write buf refused;
            Wire.write_magic buf "BSKY";
            Wire.write_i64 buf 0) );
      ( "CKST whose TPRM declares k = 2^40",
        cloud,
        bytes (fun buf ->
            Wire.write_magic buf "CKST";
            Params.write buf huge_k;
            Wire.write_magic buf "BSKY";
            Wire.write_i64 buf wrapped_words) );
      ( "CKST whose key switch maps 8 to 4, not k*N to n",
        cloud,
        bytes (fun buf ->
            Wire.write_magic buf "CKST";
            Params.write buf tiny;
            Bootstrap.write buf tiny_ck.Gates.bootstrap_key;
            Keyswitch.write buf wrong_ks) );
    ]
  in
  List.iter
    (fun (label, decode, payload) ->
      Gc.minor ();
      let before = Gc.allocated_bytes () in
      let outcome =
        match decode (Wire.reader_of_string payload) with
        | () -> "decoded"
        | exception Wire.Corrupt _ -> "Wire.Corrupt"
        | exception e -> Printexc.to_string e
      in
      Gc.minor ();
      let allocated = Gc.allocated_bytes () -. before in
      Alcotest.(check string) (label ^ ": outcome") "Wire.Corrupt" outcome;
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.0f bytes allocated, under 1 MiB" label allocated)
        true (allocated < 1048576.0))
    cases

(* One mutation of a tiny CKST per case — a bit flip, a random byte, a
   truncation, or an 8-byte field overwritten with a random 64-bit value
   (aimed at the parameter integers and the block lengths) — decodes or
   raises [Wire.Corrupt], within 8 bytes per byte sent plus 1 MiB.  A
   mutated coefficient or transform code legitimately decodes. *)
let qcheck_mutated_keysets =
  let blob =
    lazy
      (let buf = Buffer.create 65536 in
       Gates.write_cloud_keyset buf (snd (Gates.key_gen (Rng.create ~seed:98 ()) tiny));
       Buffer.contents buf)
  in
  QCheck.Test.make ~name:"mutated keysets: only Wire.Corrupt, bounded allocation" ~count:300
    QCheck.(pair (int_bound 3) (int_bound 1_000_000_000))
    (fun (kind, seed) ->
      let blob = Lazy.force blob in
      let len = String.length blob in
      let rng = Rng.create ~seed () in
      let b = Bytes.of_string blob in
      let payload =
        match kind with
        | 0 ->
          let pos = Rng.int rng len in
          Bytes.set_uint8 b pos (Bytes.get_uint8 b pos lxor (1 lsl Rng.int rng 8));
          Bytes.to_string b
        | 1 ->
          Bytes.set_uint8 b (Rng.int rng len) (Rng.int rng 256);
          Bytes.to_string b
        | 2 -> String.sub blob 0 (Rng.int rng len)
        | _ ->
          (* The CKST and TPRM headers, or the KSWK length field. *)
          let kswk_len = len - Keyswitch.table_bytes tiny - 8 in
          let pos = if Rng.bool rng then Rng.int rng 128 else kswk_len in
          Bytes.set_int64_le b pos (Rng.bits64 rng);
          Bytes.to_string b
      in
      Gc.minor ();
      let before = Gc.allocated_bytes () in
      (match Gates.read_cloud_keyset (Wire.reader_of_string payload) with
      | _ -> ()
      | exception Wire.Corrupt _ -> ());
      Gc.minor ();
      let allocated = Gc.allocated_bytes () -. before in
      if allocated > (8.0 *. float_of_int (String.length payload)) +. 1048576.0 then
        QCheck.Test.fail_reportf "mutation %d allocated %.0f bytes for %d sent" kind allocated
          (String.length payload);
      true)

(* ------------------------------------------------------------------ *)
(* Programmable bootstrapping / LUT                                    *)
(* ------------------------------------------------------------------ *)

let test_lut_identity () =
  let sk = secret () and ck = cloud () in
  let rng = Rng.create ~seed:61 () in
  let msize = 8 in
  for v = 0 to msize - 1 do
    let c = Gates.encrypt_message rng sk ~msize v in
    Alcotest.(check int) "plain roundtrip" v (Gates.decrypt_message sk ~msize c);
    let out = Gates.apply_lut ck ~msize ~table:(Array.init msize Fun.id) c in
    Alcotest.(check int) "identity lut" v (Gates.decrypt_message sk ~msize out)
  done

let test_lut_square () =
  let sk = secret () and ck = cloud () in
  let rng = Rng.create ~seed:62 () in
  let msize = 8 in
  let table = Array.init msize (fun v -> v * v mod msize) in
  for v = 0 to msize - 1 do
    let c = Gates.encrypt_message rng sk ~msize v in
    let out = Gates.apply_lut ck ~msize ~table c in
    Alcotest.(check int) (Printf.sprintf "%d^2 mod 8" v) (v * v mod msize)
      (Gates.decrypt_message sk ~msize out)
  done

let test_lut_relu_like () =
  (* A LUT computing max(v - 4, 0): the kind of non-linear table word-wise
     schemes cannot express (paper §II-C). *)
  let sk = secret () and ck = cloud () in
  let rng = Rng.create ~seed:63 () in
  let msize = 8 in
  let table = Array.init msize (fun v -> max (v - 4) 0) in
  for v = 0 to msize - 1 do
    let c = Gates.encrypt_message rng sk ~msize v in
    let out = Gates.apply_lut ck ~msize ~table c in
    Alcotest.(check int) "relu-like" (max (v - 4) 0) (Gates.decrypt_message sk ~msize out)
  done

let test_lut_composes () =
  (* Two chained programmable bootstraps: noise is refreshed each time. *)
  let sk = secret () and ck = cloud () in
  let rng = Rng.create ~seed:64 () in
  let msize = 4 in
  let double = Array.init msize (fun v -> 2 * v mod msize) in
  let succ_t = Array.init msize (fun v -> (v + 1) mod msize) in
  for v = 0 to msize - 1 do
    let c = Gates.encrypt_message rng sk ~msize v in
    let out = Gates.apply_lut ck ~msize ~table:succ_t (Gates.apply_lut ck ~msize ~table:double c) in
    Alcotest.(check int) "2v+1 mod 4" (((2 * v) + 1) mod msize) (Gates.decrypt_message sk ~msize out)
  done

let test_lut_table_composition () =
  (* The composition law of programmable bootstrapping: applying the
     composed table g∘f in ONE bootstrap must agree with chaining the two
     bootstraps, for every message.  Random non-monotone tables make sure
     the agreement is not an artifact of table shape. *)
  let sk = secret () and ck = cloud () in
  let rng = Rng.create ~seed:65 () in
  let msize = 8 in
  let f = Array.init msize (fun _ -> Rng.int rng msize) in
  let g = Array.init msize (fun _ -> Rng.int rng msize) in
  let gf = Array.init msize (fun v -> g.(f.(v))) in
  for v = 0 to msize - 1 do
    let c = Gates.encrypt_message rng sk ~msize v in
    let chained = Gates.apply_lut ck ~msize ~table:g (Gates.apply_lut ck ~msize ~table:f c) in
    let fused = Gates.apply_lut ck ~msize ~table:gf c in
    Alcotest.(check int)
      (Printf.sprintf "g(f(%d)) chained" v)
      g.(f.(v))
      (Gates.decrypt_message sk ~msize chained);
    Alcotest.(check int)
      (Printf.sprintf "g∘f fused at %d" v)
      g.(f.(v))
      (Gates.decrypt_message sk ~msize fused)
  done

let test_lut_deep_chain_noise () =
  (* The LUT analog of the 60-gate chain regression: each programmable
     bootstrap must output fresh noise, so a long chain of table lookups
     stays decryptable at every step.  A full-cycle permutation visits all
     eight messages, so every table slot (and every rotation distance) is
     exercised along the way. *)
  let sk = secret () and ck = cloud () in
  let rng = Rng.create ~seed:66 () in
  let msize = 8 in
  let perm = [| 3; 6; 1; 4; 0; 7; 2; 5 |] in
  let ct = ref (Gates.encrypt_message rng sk ~msize 5) and pt = ref 5 in
  for step = 1 to 40 do
    ct := Gates.apply_lut ck ~msize ~table:perm !ct;
    pt := perm.(!pt);
    Alcotest.(check int)
      (Printf.sprintf "step %d decrypts correctly" step)
      !pt
      (Gates.decrypt_message sk ~msize !ct)
  done

let test_noise_lut_margins () =
  (* The LUT message-space terms of the noise model.  Margins halve as the
     message space doubles; failure probability grows with arity (more
     slots, tighter margins, noisier combined inputs); the shipped test
     parameters afford all three arities while [default_128] cannot afford
     arity 3 — the documented reason the LUT suites run at [Params.test]. *)
  Alcotest.(check (float 1e-12)) "boolean msize-2 margin is 1/8" 0.125
    (Noise.lut_margin ~msize:2);
  Alcotest.(check (float 1e-12)) "msize-4 margin is 1/16" 0.0625 (Noise.lut_margin ~msize:4);
  Alcotest.(check (float 1e-12)) "msize-8 margin is 1/32" 0.03125 (Noise.lut_margin ~msize:8);
  let p1 = Noise.lut_failure_probability params ~arity:1 in
  let p2 = Noise.lut_failure_probability params ~arity:2 in
  let p3 = Noise.lut_failure_probability params ~arity:3 in
  Alcotest.(check bool) "failure grows with arity" true (p1 <= p2 && p2 <= p3);
  List.iter
    (fun arity ->
      match Noise.check_lut params ~arity with
      | `Ok prob ->
        Alcotest.(check bool)
          (Printf.sprintf "test params afford arity %d" arity)
          true (prob < 2.0 ** -32.0)
      | `Unsafe prob -> Alcotest.failf "test params unsafe at arity %d: %g" arity prob)
    [ 1; 2; 3 ];
  (match Noise.check_lut Params.default_128 ~arity:3 with
  | `Unsafe _ -> ()
  | `Ok prob -> Alcotest.failf "default_128 arity 3 unexpectedly safe: %g" prob);
  (* inputs noisier than the cells they feed: combining weighted lutdom
     operands can only add variance *)
  Alcotest.(check bool) "arity-3 input noisier than arity-2" true
    ((Noise.lut_input params ~arity:3).Noise.variance
    >= (Noise.lut_input params ~arity:2).Noise.variance);
  Alcotest.(check bool) "lut output variance positive" true
    ((Noise.lut_output params ~msize:8).Noise.variance > 0.0)

let test_lut_validates () =
  let ck = cloud () in
  let c = Lwe.trivial ~n:params.Params.lwe.Params.n 0 in
  Alcotest.(check bool) "arity mismatch rejected" true
    (try ignore (Gates.apply_lut ck ~msize:8 ~table:[| 0; 1 |] c); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "msize must divide N" true
    (try ignore (Gates.apply_lut ck ~msize:7 ~table:(Array.make 7 0) c); false
     with Invalid_argument _ -> true)


(* ------------------------------------------------------------------ *)
(* Noise analysis                                                      *)
(* ------------------------------------------------------------------ *)

let test_noise_basic_algebra () =
  let f = Noise.fresh params in
  let two = Noise.add f f in
  Alcotest.(check (float 1e-18)) "variances add" (2.0 *. f.Noise.variance) two.Noise.variance;
  let scaled = Noise.scale 2 f in
  Alcotest.(check (float 1e-18)) "scaling squares" (4.0 *. f.Noise.variance) scaled.Noise.variance;
  Alcotest.(check bool) "mod switch adds" true
    ((Noise.mod_switch params f).Noise.variance > f.Noise.variance)

let test_noise_bootstrap_refreshes () =
  (* Blind-rotation output variance does not depend on the input noise. *)
  let out = Noise.blind_rotation params in
  Alcotest.(check bool) "positive" true (out.Noise.variance > 0.0);
  let gate = Noise.gate_output params in
  Alcotest.(check bool) "key switch adds" true (gate.Noise.variance > out.Noise.variance)

let test_noise_parameter_sets_are_safe () =
  List.iter
    (fun p ->
      match Noise.check p with
      | `Ok prob -> Alcotest.(check bool) (p.Params.name ^ " failure negligible") true (prob < 1e-9)
      | `Unsafe prob -> Alcotest.failf "%s unsafe: %g" p.Params.name prob)
    [ Params.test; Params.default_128 ]

let test_noise_detects_bad_parameters () =
  (* Crank the bootstrapping-key noise until gates must fail. *)
  let bad =
    { Params.test with
      Params.name = "broken";
      tlwe = { Params.test.Params.tlwe with Params.tlwe_stdev = 0.05 } }
  in
  match Noise.check bad with
  | `Unsafe prob -> Alcotest.(check bool) "flagged" true (prob > 1e-6)
  | `Ok _ -> Alcotest.fail "oversized noise should be flagged"

let test_noise_failure_probability_monotone () =
  let b = { Noise.variance = 1e-3 } in
  let p1 = Noise.failure_probability ~margin:0.125 b in
  let p2 = Noise.failure_probability ~margin:0.0625 b in
  Alcotest.(check bool) "smaller margin fails more" true (p2 > p1);
  Alcotest.(check bool) "probabilities in range" true (p1 >= 0.0 && p2 <= 1.0)

let test_noise_prediction_matches_measurement () =
  (* Empirical gate-output noise should be within a small factor of the
     average-case prediction (the offset decomposition adds a bias term the
     variance bound ignores). *)
  let sk = secret () and ck = cloud () in
  let rng = Rng.create ~seed:71 () in
  let n = 40 in
  let sum = ref 0.0 and sumsq = ref 0.0 in
  for _ = 1 to n do
    let a = Gates.encrypt_bit rng sk true and b = Gates.encrypt_bit rng sk false in
    let out = Gates.and_gate ck a b in
    let err = Torus.to_double (Lwe.phase sk.Gates.lwe_key out) +. 0.125 in
    sum := !sum +. err;
    sumsq := !sumsq +. (err *. err)
  done;
  let mean = !sum /. float_of_int n in
  let var = (!sumsq /. float_of_int n) -. (mean *. mean) in
  let predicted = (Noise.gate_output params).Noise.variance in
  let ratio = var /. predicted in
  Alcotest.(check bool)
    (Printf.sprintf "measured/predicted variance ratio %.1f within [0.05, 50]" ratio)
    true
    (ratio > 0.05 && ratio < 50.0)

let test_noise_budget_per_transform () =
  (* The NTT computes exactly in Z[X]/(X^N+1) mod 2^32, so its transform-error
     term is zero; the FFT pays a rounding term that grows with the gadget
     magnitude.  Both transforms must keep the shipped parameter sets safe. *)
  List.iter
    (fun p ->
      let fft = Params.with_transform p Pytfhe_fft.Transform.Fft in
      let ntt = Params.with_transform p Pytfhe_fft.Transform.Ntt in
      Alcotest.(check (float 0.0))
        (p.Params.name ^ " ntt transform error is exactly zero")
        0.0 (Noise.transform_error ntt).Noise.variance;
      Alcotest.(check bool)
        (p.Params.name ^ " fft transform error is positive")
        true
        ((Noise.transform_error fft).Noise.variance > 0.0);
      Alcotest.(check bool)
        (p.Params.name ^ " ntt gate output no noisier than fft")
        true
        ((Noise.gate_output ntt).Noise.variance <= (Noise.gate_output fft).Noise.variance);
      List.iter
        (fun q ->
          match Noise.check q with
          | `Ok prob ->
            Alcotest.(check bool)
              (Printf.sprintf "%s/%s failure negligible" p.Params.name
                 (Pytfhe_fft.Transform.kind_name q.Params.transform))
              true (prob < 1e-9)
          | `Unsafe prob ->
            Alcotest.failf "%s/%s unsafe: %g" p.Params.name
              (Pytfhe_fft.Transform.kind_name q.Params.transform)
              prob)
        [ fft; ntt ])
    [ Params.test; Params.default_128 ]


(* ------------------------------------------------------------------ *)
(* Failure injection                                                   *)
(* ------------------------------------------------------------------ *)

let test_wrong_key_fails_to_decrypt () =
  let sk, _ = Lazy.force keys in
  let rng = Rng.create ~seed:91 () in
  let other_sk, _ = Gates.key_gen (Rng.create ~seed:9999 ()) params in
  (* Statistically, decrypting 32 fresh bits with the wrong key must get at
     least one wrong (probability of all matching ~ 2^-32-ish). *)
  let mismatches = ref 0 in
  for _ = 1 to 32 do
    let c = Gates.encrypt_bit rng sk true in
    if not (Gates.decrypt_bit other_sk c) then incr mismatches
  done;
  Alcotest.(check bool) "wrong key garbles" true (!mismatches > 0)

let test_tampered_ciphertext_decrypts_wrong () =
  let sk, _ = Lazy.force keys in
  let rng = Rng.create ~seed:92 () in
  let c = Gates.encrypt_bit rng sk true in
  (* Flip the body by half a torus: the phase sign must flip. *)
  let tampered = { c with Lwe.b = Torus.add c.Lwe.b (Torus.mod_switch_to 1 ~msize:2) } in
  Alcotest.(check bool) "tampering flips the phase sign" true
    (Gates.decrypt_bit sk c <> Gates.decrypt_bit sk tampered)

let test_mismatched_input_arity_rejected () =
  let _, ck = Lazy.force keys in
  let short = Lwe.trivial ~n:4 0 in
  Alcotest.(check bool) "keyswitch rejects wrong dimension" true
    (try
       ignore (Keyswitch.apply ck.Gates.keyswitch_key short);
       false
     with Invalid_argument _ | Failure _ -> true)

(* ------------------------------------------------------------------ *)
(* In-place hot path vs allocating and schoolbook references           *)
(* ------------------------------------------------------------------ *)

let qcheck_mul_by_xai_into_matches =
  QCheck.Test.make ~name:"mul_by_xai_into matches mul_by_xai" ~count:200
    QCheck.(pair small_nat (int_range 0 1_000_000))
    (fun (a, seed) ->
      let n = 64 in
      let a = a mod (2 * n) in
      let rng = Rng.create ~seed () in
      let p = random_torus_poly rng n in
      let dst = Array.make n 123 in
      Poly.mul_by_xai_into dst a p;
      dst = Poly.mul_by_xai a p)

let qcheck_mul_by_xai_minus_one_into_matches =
  QCheck.Test.make ~name:"mul_by_xai_minus_one_into matches sub of rotation" ~count:200
    QCheck.(pair small_nat (int_range 0 1_000_000))
    (fun (a, seed) ->
      let n = 64 in
      let a = a mod (2 * n) in
      let rng = Rng.create ~seed () in
      let p = random_torus_poly rng n in
      let dst = Array.make n 123 in
      Poly.mul_by_xai_minus_one_into dst a p;
      dst = Poly.sub (Poly.mul_by_xai a p) p)

let test_poly_into_rejects_aliasing_and_sizes () =
  let p = Array.make 32 0 in
  let rejects label f =
    Alcotest.(check bool) label true (try f (); false with Invalid_argument _ -> true)
  in
  rejects "mul_by_xai_into aliasing" (fun () -> Poly.mul_by_xai_into p 3 p);
  rejects "mul_by_xai_into size" (fun () -> Poly.mul_by_xai_into (Array.make 16 0) 3 p);
  rejects "mul_by_xai_minus_one_into aliasing" (fun () -> Poly.mul_by_xai_minus_one_into p 3 p);
  rejects "of_floats_into size" (fun () -> Poly.of_floats_into (Array.make 16 0) (Array.make 32 0.0));
  rejects "to_floats_into size" (fun () ->
      Poly.to_floats_into ~centred:true (Array.make 16 0.0) p)

let qcheck_float_conversions_into_match =
  QCheck.Test.make ~name:"of/to_floats_into match allocating versions" ~count:200
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let n = 64 in
      let rng = Rng.create ~seed () in
      let p = random_torus_poly rng n in
      let f = Array.init n (fun _ -> (Rng.float rng -. 0.5) *. 1e10) in
      let fdst = Array.make n nan in
      Poly.to_floats_into ~centred:true fdst p;
      let ok_to = fdst = Poly.to_floats ~centred:true p in
      let tdst = Array.make n 987 in
      Poly.of_floats_into tdst f;
      ok_to && tdst = Poly.of_floats f)

(* The schoolbook reference the hot path is pinned to, bit for bit: the
   external product g ⊡ c as Σ_r digit_r · row_r over coefficient-form
   TGSW rows, each polynomial product a naive negacyclic convolution.  No
   transform is involved, so one reference serves FFT and NTT sets. *)
let schoolbook_product p (g : Tgsw.sample) (c : Tlwe.sample) =
  let k = p.Params.tlwe.Params.k in
  let digits = Tgsw.decompose p c in
  let component comp =
    let acc = Poly.zero p.Params.tlwe.Params.ring_n in
    Array.iteri
      (fun r d ->
        let row = g.Tgsw.rows.(r) in
        let poly = if comp < k then row.Tlwe.mask.(comp) else row.Tlwe.body in
        Poly.add_to acc (Poly.mul_int_torus_naive d poly))
      digits;
    acc
  in
  { Tlwe.mask = Array.init k component; body = component k }

(* acc + g ⊡ ((X^a − 1)·acc): the CMux between X^a·acc and acc. *)
let schoolbook_cmux_rotate p g a (acc : Tlwe.sample) =
  let rot =
    {
      Tlwe.mask = Array.map (Poly.mul_by_xai_minus_one a) acc.Tlwe.mask;
      body = Poly.mul_by_xai_minus_one a acc.Tlwe.body;
    }
  in
  let out = Tlwe.copy acc in
  Tlwe.add_to out (schoolbook_product p g rot);
  out

let schoolbook_blind_rotate p (bsk : Tgsw.sample array) ~testvect (s : Lwe.sample) =
  let n2 = 2 * p.Params.tlwe.Params.ring_n in
  let barb = Torus.mod_switch_from s.Lwe.b ~msize:n2 in
  let acc = ref (Tlwe.trivial p (Poly.mul_by_xai ((n2 - barb) mod n2) testvect)) in
  Array.iteri
    (fun i g ->
      let barai = Torus.mod_switch_from s.Lwe.a.(i) ~msize:n2 in
      if barai <> 0 then acc := schoolbook_cmux_rotate p g barai !acc)
    bsk;
  !acc

(* The pins run under both transforms.  Each set's bootstrapping key keeps
   its coefficient-form rows for the reference and reaches the kernel
   through the BSKY wire format: the rows' coefficients, written straight
   into the block. *)
let pin_sets =
  List.map
    (fun tr ->
      let p = Params.with_transform params tr in
      ( p,
        lazy
          (let rng = Rng.create ~seed:1201 () in
           let lwe_key = Lwe.key_gen rng ~n:p.Params.lwe.Params.n in
           let tlwe_key = Tlwe.key_gen rng p in
           let rows = Array.map (Tgsw.encrypt_int rng p tlwe_key) lwe_key.Lwe.bits in
           let polys (g : Tgsw.sample) =
             List.concat_map
               (fun (row : Tlwe.sample) -> Array.to_list (Array.append row.mask [| row.body |]))
               (Array.to_list g.Tgsw.rows)
           in
           let buf = Buffer.create 4096 in
           Wire.write_magic buf "BSKY";
           Wire.write_u32_array buf (Array.concat (List.concat_map polys (Array.to_list rows)));
           (tlwe_key, rows, Bootstrap.read p (Wire.reader_of_string (Buffer.contents buf)))) ))
    [ Pytfhe_fft.Transform.Fft; Pytfhe_fft.Transform.Ntt ]

(* Read every position of accumulator row [row] back as an LWE sample. *)
let row_samples p (tr : Trlwe_array.t) ~row =
  let n = p.Params.tlwe.Params.ring_n in
  let dst = Lwe_array.create ~n:(Params.extracted_n p) n in
  for pos = 0 to n - 1 do
    Trlwe_array.extract_row_into tr ~row ~pos dst ~drow:pos
  done;
  Lwe_array.to_samples dst

(* Row [row] holds [expected] exactly: every position reads back as its
   extraction. *)
let row_is p tr ~row (expected : Tlwe.sample) =
  row_samples p tr ~row
  = Array.init p.Params.tlwe.Params.ring_n (fun pos -> Tlwe.extract_lwe_at p ~pos expected)

(* One CMux step over a fresh encryption loaded into a row, so the
   decomposition sees full-range mask digits: the step must add exactly
   the schoolbook external product g ⊡ ((X^a − 1)·acc). *)
let qcheck_external_product_matches_schoolbook =
  QCheck.Test.make ~name:"external product vs schoolbook" ~count:20
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      List.for_all
        (fun (p, keys) ->
          let key, _, _ = Lazy.force keys in
          let rng = Rng.create ~seed () in
          let n = p.Params.tlwe.Params.ring_n in
          let acc = Tlwe.encrypt_poly rng p key (random_torus_poly rng n) in
          let tr = Trlwe_array.create p ~cap:1 in
          Array.iteri
            (fun comp poly -> Trlwe_array.add_ints_to tr ~row:0 ~comp poly)
            (Array.append acc.Tlwe.mask [| acc.Tlwe.body |]);
          let a = 1 + Rng.int rng ((2 * n) - 1) in
          let g = Tgsw.encrypt_int rng p key (Rng.int rng 2) in
          Tgsw.cmux_rotate_row_into p (Tgsw.workspace_create p) (Tgsw.to_fft p g) a tr ~row:0;
          let diff =
            {
              Tlwe.mask = Array.map (Poly.mul_by_xai_minus_one a) acc.Tlwe.mask;
              body = Poly.mul_by_xai_minus_one a acc.Tlwe.body;
            }
          in
          let expected = Tlwe.copy acc in
          Tlwe.add_to expected (schoolbook_product p g diff);
          row_is p tr ~row:0 expected)
        pin_sets)

let qcheck_row_cmux_matches_schoolbook =
  QCheck.Test.make ~name:"row cmux steps vs schoolbook" ~count:20
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      List.for_all
        (fun (p, keys) ->
          let key, _, _ = Lazy.force keys in
          let rng = Rng.create ~seed () in
          let ws = Tgsw.workspace_create p in
          let n = p.Params.tlwe.Params.ring_n in
          (* Three steps from a trivial row: the masks are non-trivial from
             the second step on. *)
          let body = random_torus_poly rng n in
          let tr = Trlwe_array.create p ~cap:1 in
          Trlwe_array.rotate_body_from tr 0 0 body;
          let expected = ref (Tlwe.trivial p body) in
          for _ = 1 to 3 do
            let a = 1 + Rng.int rng ((2 * n) - 1) in
            let g = Tgsw.encrypt_int rng p key (Rng.int rng 2) in
            expected := schoolbook_cmux_rotate p g a !expected;
            Tgsw.cmux_rotate_row_into p ws (Tgsw.to_fft p g) a tr ~row:0
          done;
          row_is p tr ~row:0 !expected)
        pin_sets)

(* One launch runs a sign row, an indicator row and a table row; each slot
   must equal the schoolbook rotation of that row's test vector, read at
   the slot's position, with the input centred where the job centres. *)
let qcheck_batched_blind_rotation_matches_schoolbook =
  QCheck.Test.make ~name:"batched blind rotation vs schoolbook" ~count:3
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      List.for_all
        (fun (p, keys) ->
          let _, rows, bkey = Lazy.force keys in
          let rng = Rng.create ~seed () in
          let n = p.Params.tlwe.Params.ring_n in
          let lwe_n = p.Params.lwe.Params.n in
          let msize = 1 lsl (1 + Rng.int rng 3) in
          let mu = Rng.bits32 rng in
          let table = Array.init msize (fun _ -> Rng.bits32 rng) in
          let src =
            Lwe_array.of_samples ~n:lwe_n
              (Array.init 3 (fun _ ->
                   { Lwe.a = Array.init lwe_n (fun _ -> Rng.bits32 rng); b = Rng.bits32 rng }))
          in
          let dst = Lwe_array.create ~n:(Params.extracted_n p) (msize + 2) in
          Bootstrap.batch_rows_into p (Bootstrap.batch_create p ~cap:3) bkey
            [| Bootstrap.Job_sign mu; Bootstrap.Job_lut msize; Bootstrap.Job_table table |]
            ~src ~dst;
          let centring = Torus.mod_switch_to 1 ~msize:(4 * msize) in
          let reference row ~testvect ~centre positions =
            let s = Lwe_array.get src row in
            let s = if centre then { s with Lwe.b = Torus.add s.Lwe.b centring } else s in
            let acc = schoolbook_blind_rotate p rows ~testvect s in
            List.map (fun pos -> Tlwe.extract_lwe_at p ~pos acc) positions
          in
          let slot = n / msize in
          let staircase =
            Array.init n (fun j -> if j >= (msize - 1) * slot then Bootstrap.lut_amplitude else 0)
          in
          let expected =
            reference 0 ~testvect:(Array.make n mu) ~centre:false [ 0 ]
            @ reference 1 ~testvect:staircase ~centre:true
                (List.init msize (fun m -> (msize - 1 - m) * slot))
            @ reference 2 ~testvect:(Array.init n (fun j -> table.(j / slot))) ~centre:true [ 0 ]
          in
          Array.to_list (Lwe_array.to_samples dst) = expected)
        pin_sets)

(* The schoolbook key switch over the KSWK wire block: for every nonzero
   digit (i, j, d) of the rounded input mask, subtract entry (i, j, d) —
   the block holds entries d = 1 … base−1 only, n + 1 words each. *)
let qcheck_batched_keyswitch_matches_schoolbook =
  let ck = lazy (cloud ()) in
  let table =
    lazy
      (let buf = Buffer.create 4096 in
       Keyswitch.write buf (Lazy.force ck).Gates.keyswitch_key;
       let r = Wire.reader_of_string (Buffer.contents buf) in
       Wire.read_magic r "KSWK";
       Wire.read_u32_array r)
  in
  let schoolbook (s : Lwe.sample) =
    let flat = Lazy.force table in
    let t = params.Params.ks.Params.t and base_bit = params.Params.ks.Params.base_bit in
    let n = params.Params.lwe.Params.n in
    let entry i j d =
      let off = ((((i * t) + j) * ((1 lsl base_bit) - 1)) + d - 1) * (n + 1) in
      { Lwe.a = Array.sub flat off n; b = flat.(off + n) }
    in
    let prec_offset = 1 lsl (32 - 1 - (base_bit * t)) in
    let out = ref (Lwe.trivial ~n s.Lwe.b) in
    Array.iteri
      (fun i ai ->
        let ai = (ai + prec_offset) land 0xFFFFFFFF in
        for j = 0 to t - 1 do
          let d = (ai lsr (32 - ((j + 1) * base_bit))) land ((1 lsl base_bit) - 1) in
          if d <> 0 then out := Lwe.sub !out (entry i j d)
        done)
      s.Lwe.a;
    !out
  in
  QCheck.Test.make ~name:"batched key switch vs schoolbook" ~count:50
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create ~seed () in
      let rows =
        Array.init 3 (fun _ ->
            { Lwe.a = Array.init (Params.extracted_n params) (fun _ -> Rng.bits32 rng);
              b = Rng.bits32 rng })
      in
      let dst = Lwe_array.create ~n:params.Params.lwe.Params.n 3 in
      ignore
        (Keyswitch.apply_batch_rows_into (Lazy.force ck).Gates.keyswitch_key
           ~src:(Lwe_array.of_samples ~n:(Params.extracted_n params) rows)
           ~dst);
      Lwe_array.to_samples dst = Array.map schoolbook rows)

let test_keyswitch_serialize_identical_apply () =
  (* The flat table must round-trip through its wire block and produce
     bit-identical key switches. *)
  let ck = cloud () in
  let kk = ck.Gates.keyswitch_key in
  let kk' = roundtrip Keyswitch.write (Keyswitch.read params) kk in
  let rng = Rng.create ~seed:95 () in
  for _ = 1 to 10 do
    let s =
      { Lwe.a = Array.init (Params.extracted_n params) (fun _ -> Rng.bits32 rng);
        b = Rng.bits32 rng }
    in
    let x = Keyswitch.apply kk s and y = Keyswitch.apply kk' s in
    Alcotest.(check (array int)) "mask identical" x.Lwe.a y.Lwe.a;
    Alcotest.(check int) "body identical" x.Lwe.b y.Lwe.b
  done

(* One key switch on a record allocates its result and nothing else: the
   digit loop runs on the record's own mask and the result's arrays. *)
let test_keyswitch_apply_allocates_only_result () =
  let kk = (cloud ()).Gates.keyswitch_key in
  let rng = Rng.create ~seed:94 () in
  let s =
    { Lwe.a = Array.init (Params.extracted_n params) (fun _ -> Rng.bits32 rng); b = Rng.bits32 rng }
  in
  ignore (Keyswitch.apply kk s);
  let calls = 100 in
  let before = Gc.minor_words () in
  for _ = 1 to calls do
    ignore (Sys.opaque_identity (Keyswitch.apply kk s))
  done;
  let per_call = (Gc.minor_words () -. before) /. float_of_int calls in
  let n = params.Params.lwe.Params.n in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f words per call, at most n + 16 = %d" per_call (n + 16))
    true
    (per_call <= float_of_int (n + 16))

(* [Bootstrap.read] under [p], of the key written from [Params.test]:
   [true] when it refuses the block with [Wire.Corrupt]. *)
let bootstrap_read_refused p =
  let buf = Buffer.create 4096 in
  Bootstrap.write buf (cloud ()).Gates.bootstrap_key;
  match Bootstrap.read p (Wire.reader_of_string (Buffer.contents buf)) with
  | _ -> false
  | exception Wire.Corrupt _ -> true

let other_params ~name ~n ~ring_n ~l =
  Params.custom ~name ~n ~lwe_stdev:(2.0 ** -20.0) ~ring_n ~k:1 ~tlwe_stdev:(2.0 ** -30.0) ~l
    ~bg_bit:6 ~ks_t:12 ~ks_base_bit:2 ()

(* The key's TGSW rows, read into FFT spectra, must match the params'
   ring degree and gadget depth. *)
let test_fft_key_read_rejects_mismatched_params () =
  Alcotest.(check bool) "wrong ring degree rejected" true
    (bootstrap_read_refused (other_params ~name:"other-ring" ~n:64 ~ring_n:128 ~l:3));
  Alcotest.(check bool) "wrong gadget depth rejected" true
    (bootstrap_read_refused (other_params ~name:"other-l" ~n:64 ~ring_n:256 ~l:2));
  (* Matching parameters must still read back. *)
  Alcotest.(check bool) "own params read back" false (bootstrap_read_refused params)

let test_bootstrap_read_rejects_mismatched_params () =
  Alcotest.(check bool) "wrong LWE dimension rejected" true
    (bootstrap_read_refused (other_params ~name:"other-n" ~n:32 ~ring_n:256 ~l:3))

let test_keyswitch_read_rejects_wrong_length () =
  let ck = cloud () in
  let buf = Buffer.create 4096 in
  Keyswitch.write buf ck.Gates.keyswitch_key;
  let payload = Buffer.contents buf in
  let words = Keyswitch.table_bytes params / 4 in
  let reads p s =
    match Keyswitch.read p (Wire.reader_of_string s) with
    | _ -> true
    | exception Wire.Corrupt _ -> false
  in
  let short =
    let b = Buffer.create (4 * words) in
    Wire.write_magic b "KSWK";
    Wire.write_u32_array b (Array.make (words - 1) 0);
    Buffer.contents b
  in
  let deeper = { params with Params.ks = { params.Params.ks with Params.t = 11 } } in
  let narrower = { params with Params.lwe = { params.Params.lwe with Params.n = 32 } } in
  List.iter
    (fun (label, ok, p, s) -> Alcotest.(check bool) label ok (reads p s))
    [
      ("its own table", true, params, payload);
      ("a block one word short", false, params, short);
      ("a truncated block", false, params, String.sub payload 0 (String.length payload - 4));
      ("under another decomposition depth", false, deeper, payload);
      ("under another LWE dimension", false, narrower, payload);
    ]

(* Noise-budget regression: every bootstrapped gate must fully refresh the
   ciphertext, so an arbitrarily deep chain stays decryptable.  60 gates of
   mixed kinds, each consuming the previous output, with the plaintext
   tracked alongside — if a parameter or FFT change erodes the noise
   budget, the failure localizes to the first wrong step. *)
let test_noise_budget_deep_gate_chain () =
  let sk = secret () and ck = cloud () in
  let rng = Rng.create ~seed:60606 () in
  let fresh = Gates.encrypt_bit rng sk true in
  let gates =
    [| ("xor", Gates.xor_gate, ( <> ));
       ("nand", Gates.nand_gate, fun a b -> not (a && b));
       ("or", Gates.or_gate, ( || ));
       ("andyn", Gates.andyn_gate, fun a b -> a && not b) |]
  in
  let ct = ref fresh and pt = ref true in
  for step = 1 to 60 do
    let name, gate, spec = gates.(step mod Array.length gates) in
    let b = Rng.bool rng in
    let cb = Gates.encrypt_bit rng sk b in
    ct := gate ck !ct cb;
    pt := spec !pt b;
    Alcotest.(check bool)
      (Printf.sprintf "step %d (%s) decrypts correctly" step name)
      !pt (Gates.decrypt_bit sk !ct)
  done

let gate_cases =
  [
    ("nand", Gates.nand_gate, fun a b -> not (a && b));
    ("and", Gates.and_gate, ( && ));
    ("or", Gates.or_gate, ( || ));
    ("nor", Gates.nor_gate, fun a b -> not (a || b));
    ("xor", Gates.xor_gate, ( <> ));
    ("xnor", Gates.xnor_gate, ( = ));
    ("andny", Gates.andny_gate, fun a b -> (not a) && b);
    ("andyn", Gates.andyn_gate, fun a b -> a && not b);
    ("orny", Gates.orny_gate, fun a b -> (not a) || b);
    ("oryn", Gates.oryn_gate, fun a b -> a || not b);
  ]

let () =
  let gate_tests =
    List.map
      (fun (name, gate, spec) -> Alcotest.test_case name `Slow (truth_table gate spec))
      gate_cases
  in
  Alcotest.run "tfhe"
    [
      ( "torus",
        [
          Alcotest.test_case "roundtrip" `Quick test_torus_roundtrip;
          Alcotest.test_case "group laws" `Quick test_torus_group_laws;
          Alcotest.test_case "mod switch" `Quick test_torus_mod_switch;
          Alcotest.test_case "mod switch rounds noise" `Quick test_torus_mod_switch_rounds_noise;
          Alcotest.test_case "integer scaling" `Quick test_torus_mul_int;
          QCheck_alcotest.to_alcotest qcheck_torus_signed_roundtrip;
        ] );
      ( "params",
        [
          Alcotest.test_case "custom + validate" `Quick test_params_custom_and_validate;
          Alcotest.test_case "shipped sets validate" `Quick test_params_shipped_sets_validate;
        ] );
      ( "poly",
        [
          Alcotest.test_case "X^0 identity" `Quick test_poly_mul_by_xai_identity;
          Alcotest.test_case "full turn" `Quick test_poly_mul_by_xai_full_turn;
          Alcotest.test_case "X^N negates" `Quick test_poly_mul_by_xai_negation;
          Alcotest.test_case "rotation composes" `Quick test_poly_mul_by_xai_composition;
          Alcotest.test_case "(X^a - 1)p" `Quick test_poly_mul_xai_minus_one;
          Alcotest.test_case "fft mul matches naive" `Quick test_poly_fft_mul_matches_naive;
          Alcotest.test_case "multiply by one" `Quick test_poly_mul_by_binary;
        ] );
      ( "lwe",
        [
          Alcotest.test_case "encrypt/decrypt" `Quick test_lwe_encrypt_decrypt;
          Alcotest.test_case "homomorphic add/sub" `Quick test_lwe_homomorphic_add;
          Alcotest.test_case "trivial and neg" `Quick test_lwe_trivial_and_neg;
          Alcotest.test_case "scale" `Quick test_lwe_scale;
          Alcotest.test_case "ciphertext size (2.46 KB)" `Quick test_lwe_ciphertext_bytes;
          Alcotest.test_case "noise magnitude" `Quick test_lwe_noise_magnitude;
        ] );
      ( "tlwe-tgsw",
        [
          Alcotest.test_case "tlwe phase" `Quick test_tlwe_phase_recovers_message;
          Alcotest.test_case "sample extraction" `Quick test_tlwe_extract;
          Alcotest.test_case "add/sub inverse" `Quick test_tlwe_add_sub_roundtrip;
          Alcotest.test_case "external product m in {0,1}" `Slow test_tgsw_external_product_zero_one;
          Alcotest.test_case "cmux selects" `Slow test_tgsw_cmux_selects;
          Alcotest.test_case "decomposition recombines" `Quick test_tgsw_decompose_reconstructs;
        ] );
      ( "bootstrap",
        [
          Alcotest.test_case "keyswitch preserves message" `Slow test_keyswitch_preserves_message;
          Alcotest.test_case "bootstrap sign" `Slow test_bootstrap_sign;
          Alcotest.test_case "bootstrap reduces noise" `Slow test_bootstrap_reduces_noise;
        ] );
      ( "failure-injection",
        [
          Alcotest.test_case "wrong key garbles" `Slow test_wrong_key_fails_to_decrypt;
          Alcotest.test_case "tampered ciphertext" `Slow test_tampered_ciphertext_decrypts_wrong;
          Alcotest.test_case "arity mismatch rejected" `Quick test_mismatched_input_arity_rejected;
          Alcotest.test_case "60-gate chain keeps noise budget" `Slow
            test_noise_budget_deep_gate_chain;
        ] );
      ( "noise",
        [
          Alcotest.test_case "variance algebra" `Quick test_noise_basic_algebra;
          Alcotest.test_case "bootstrap refreshes" `Quick test_noise_bootstrap_refreshes;
          Alcotest.test_case "shipped parameters safe" `Quick test_noise_parameter_sets_are_safe;
          Alcotest.test_case "detects bad parameters" `Quick test_noise_detects_bad_parameters;
          Alcotest.test_case "failure probability monotone" `Quick test_noise_failure_probability_monotone;
          Alcotest.test_case "prediction vs measurement" `Slow test_noise_prediction_matches_measurement;
          Alcotest.test_case "budget holds under both transforms" `Quick
            test_noise_budget_per_transform;
          Alcotest.test_case "lut message-space margins" `Quick test_noise_lut_margins;
        ] );
      ( "lut",
        [
          Alcotest.test_case "identity" `Slow test_lut_identity;
          Alcotest.test_case "square mod 8" `Slow test_lut_square;
          Alcotest.test_case "relu-like table" `Slow test_lut_relu_like;
          Alcotest.test_case "composition refreshes noise" `Slow test_lut_composes;
          Alcotest.test_case "table composition g∘f fuses" `Slow test_lut_table_composition;
          Alcotest.test_case "40-lookup chain keeps noise budget" `Slow
            test_lut_deep_chain_noise;
          Alcotest.test_case "validates arguments" `Quick test_lut_validates;
        ] );
      ( "in-place-hot-path",
        [
          QCheck_alcotest.to_alcotest qcheck_mul_by_xai_into_matches;
          QCheck_alcotest.to_alcotest qcheck_mul_by_xai_minus_one_into_matches;
          Alcotest.test_case "into rejects aliasing/sizes" `Quick
            test_poly_into_rejects_aliasing_and_sizes;
          QCheck_alcotest.to_alcotest qcheck_float_conversions_into_match;
          QCheck_alcotest.to_alcotest qcheck_external_product_matches_schoolbook;
          QCheck_alcotest.to_alcotest qcheck_row_cmux_matches_schoolbook;
          QCheck_alcotest.to_alcotest qcheck_batched_blind_rotation_matches_schoolbook;
          QCheck_alcotest.to_alcotest qcheck_batched_keyswitch_matches_schoolbook;
          Alcotest.test_case "keyswitch serialize apply-identical" `Quick
            test_keyswitch_serialize_identical_apply;
          Alcotest.test_case "read_fft rejects wrong params" `Quick
            test_fft_key_read_rejects_mismatched_params;
          Alcotest.test_case "bootstrap read rejects wrong params" `Quick
            test_bootstrap_read_rejects_mismatched_params;
          Alcotest.test_case "keyswitch read rejects a table of the wrong length" `Quick
            test_keyswitch_read_rejects_wrong_length;
          Alcotest.test_case "one-row key switch allocates only its result" `Quick
            test_keyswitch_apply_allocates_only_result;
        ] );
      ( "serialize",
        [
          Alcotest.test_case "params" `Quick test_serialize_params;
          Alcotest.test_case "lwe sample" `Quick test_serialize_lwe_sample;
          Alcotest.test_case "lwe key" `Quick test_serialize_lwe_key;
          Alcotest.test_case "keysets functional" `Slow test_serialize_keysets_functional;
          Alcotest.test_case "rejects garbage" `Quick test_serialize_rejects_garbage;
          Alcotest.test_case "secret keyset rejects wrong shapes" `Quick
            test_secret_keyset_rejects_wrong_shapes;
          Alcotest.test_case "keyset decoders bound allocation" `Quick
            test_keyset_decoders_bound_allocation;
          QCheck_alcotest.to_alcotest qcheck_mutated_keysets;
          Alcotest.test_case "key round trip is exact" `Quick test_key_round_trip_exact;
        ] );
      ( "gates",
        gate_tests
        @ [
            Alcotest.test_case "not" `Slow test_not_gate;
            Alcotest.test_case "constant" `Quick test_constant_gate;
            Alcotest.test_case "mux" `Slow test_mux_gate;
            Alcotest.test_case "full adder composition" `Slow test_gate_composition;
            Alcotest.test_case "output noise margin" `Slow test_gate_output_noise_margin;
          ] );
    ]
