(* The transform dispatch layer: the exact double-prime NTT against the
   complex FFT.

   Three layers of evidence, mirroring the claims in docs/perf.md:

   - the NTT itself is *exact*: its negacyclic products equal the
     schoolbook reference coefficient for coefficient at gadget-scale
     magnitudes, and the FFT agrees once rounded (its products round to
     exact integers in this range — which is what makes the two gate
     pipelines bit-comparable at all);
   - the gate pipeline is transform-generic: random netlists evaluated
     under FFT parameters and NTT parameters decrypt to identical
     plaintexts on the sequential, domain-parallel and multi-process
     executors (and the raw NTT ciphertexts are bit-exact across those
     executors, like the FFT's);
   - the table caches are precomputed before worker domains exist: a
     parallel run over a warmed cache performs zero table builds. *)

module Rng = Pytfhe_util.Rng
module Wire = Pytfhe_util.Wire
module Netlist = Pytfhe_circuit.Netlist
module Negacyclic = Pytfhe_fft.Negacyclic
module Ntt = Pytfhe_fft.Ntt
module Transform = Pytfhe_fft.Transform
open Pytfhe_tfhe
open Pytfhe_backend

let ntt_test_params = Params.with_transform Params.test Transform.Ntt

let fft_keys = lazy (Gates.key_gen (Rng.create ~seed:909 ()) Params.test)
let ntt_keys = lazy (Gates.key_gen (Rng.create ~seed:909 ()) ntt_test_params)

(* ------------------------------------------------------------------ *)
(* NTT exactness and contracts                                         *)
(* ------------------------------------------------------------------ *)

(* Every power-of-two degree from 2 to 2048, so rings with one or two
   butterfly stages are covered as well as the production sizes. *)
let ntt_degrees = List.init 11 (fun i -> 2 lsl i)

(* mul_add_into's products stay below 2⁶² only for residues inside
   [0, p). *)
let check_residues n (s : Ntt.spectrum) =
  let inside p = Array.for_all (fun r -> r >= 0 && r < p) in
  if not (inside Ntt.p1 s.Ntt.v1 && inside Ntt.p2 s.Ntt.v2) then
    Alcotest.failf "spectrum residue outside [0, p) at N=%d" n

(* Cycles through [values] to fill a degree-[n] polynomial. *)
let cycle n values = Array.init n (fun j -> values.(j mod Array.length values))

(* Digits at the gadget bound (±Bg/2) against centred torus words at
   ±2³¹ and values ≡ −1 mod each prime, at every degree: the NTT must
   match the schoolbook product exactly, not approximately. *)
let test_ntt_polymul_exact_gadget_range () =
  let half_bg = Params.bg Params.default_128 / 2 in
  let rng = Rng.create ~seed:11 () in
  List.iter
    (fun n ->
      let digits =
        [
          Array.init n (fun _ -> Rng.int rng ((2 * half_bg) + 1) - half_bg);
          Array.make n half_bg;
          Array.make n (-half_bg);
          cycle n [| half_bg; -half_bg |];
        ]
      in
      let words =
        [
          Array.init n (fun _ -> Rng.int rng (1 lsl 32) - (1 lsl 31));
          Array.make n (1 lsl 31);
          Array.make n (-(1 lsl 31));
          cycle n [| Ntt.p1 - 1; Ntt.p2 - 1; -1; (1 lsl 31) - 1 |];
        ]
      in
      List.iter
        (fun a ->
          List.iter
            (fun b ->
              if Ntt.polymul a b <> Ntt.polymul_naive a b then
                Alcotest.failf "ntt <> schoolbook at N=%d" n)
            words)
        digits)
    ntt_degrees

(* [forward_into] takes any ints: each must give the spectrum of its
   reduction mod p1·p2, with canonical residues.  Inside the centred range
   (−M/2, M/2) the inverse recovers the input exactly, up to its edges. *)
let test_ntt_roundtrip () =
  let m = Ntt.modulus in
  let reduce x =
    let r = x mod m in
    if r < 0 then r + m else r
  in
  let rng = Rng.create ~seed:12 () in
  List.iter
    (fun n ->
      let any =
        [
          Array.init n (fun _ -> Int64.to_int (Rng.bits64 rng));
          cycle n [| max_int; min_int; -max_int; m - 1; 1 - m; m; -m; (2 * m) - 1 |];
        ]
      in
      List.iter
        (fun x ->
          let s = Ntt.forward x and r = Ntt.forward (Array.map reduce x) in
          check_residues n s;
          if s.Ntt.v1 <> r.Ntt.v1 || s.Ntt.v2 <> r.Ntt.v2 then
            Alcotest.failf "forward differs from forward of the reduction mod M at N=%d" n)
        any;
      let centred =
        [
          Array.init n (fun _ -> Rng.int rng (1 lsl 40) - (1 lsl 39));
          cycle n [| (m - 1) / 2; -((m - 1) / 2); Ntt.p1 - 1; Ntt.p2 - 1; -1; 0 |];
        ]
      in
      List.iter
        (fun p ->
          let s = Ntt.forward p in
          check_residues n s;
          if Ntt.backward s <> p then Alcotest.failf "backward (forward p) <> p at N=%d" n)
        centred)
    ntt_degrees

(* backward_into runs the inverse in place: the spectrum is scratch
   afterwards.  Pin the contract so a caller reusing a spectrum after the
   inverse fails a test, not a debugging session. *)
let test_ntt_backward_destroys_spectrum () =
  let n = 64 in
  let rng = Rng.create ~seed:13 () in
  let p = Array.init n (fun _ -> Rng.int rng 1000 - 500) in
  let s = Ntt.forward p in
  let v1 = Array.copy s.Ntt.v1 and v2 = Array.copy s.Ntt.v2 in
  let out = Array.make n 0 in
  Ntt.backward_into out s;
  Alcotest.(check bool) "inverse recovers the polynomial" true (out = p);
  Alcotest.(check bool) "spectrum consumed by the inverse" true
    (s.Ntt.v1 <> v1 || s.Ntt.v2 <> v2)

let test_ntt_mul_add_accumulates () =
  let n = 128 in
  let rng = Rng.create ~seed:14 () in
  let a1 = Array.init n (fun _ -> Rng.int rng 64 - 32) in
  let b1 = Array.init n (fun _ -> Rng.int rng (1 lsl 31) - (1 lsl 30)) in
  let a2 = Array.init n (fun _ -> Rng.int rng 64 - 32) in
  let b2 = Array.init n (fun _ -> Rng.int rng (1 lsl 31) - (1 lsl 30)) in
  let acc = Ntt.spectrum_create n in
  Ntt.spectrum_zero acc;
  Ntt.mul_add_into acc (Ntt.forward a1) (Ntt.forward b1);
  Ntt.mul_add_into acc (Ntt.forward a2) (Ntt.forward b2);
  check_residues n acc;
  let got = Ntt.backward acc in
  let expected =
    Array.map2 ( + ) (Ntt.polymul_naive a1 b1) (Ntt.polymul_naive a2 b2)
  in
  Alcotest.(check bool) "sum of two products" true (got = expected)

(* In the gadget range the FFT's products round to exact integers, so
   rounding its result must reproduce the NTT's exact one — the property
   the ntt_ok CI gate and every cross-transform comparison stand on. *)
let test_fft_ntt_polymul_agree =
  QCheck.Test.make ~name:"fft rounds to the ntt's exact product" ~count:25
    QCheck.(pair small_nat small_nat)
    (fun (s1, s2) ->
      let n = 256 in
      let rng = Rng.create ~seed:(100 + (1000 * s1) + s2) () in
      let a = Array.init n (fun _ -> Rng.int rng 64 - 32) in
      let b = Array.init n (fun _ -> Rng.int rng (1 lsl 32) - (1 lsl 31)) in
      let exact = Ntt.polymul a b in
      let via_fft =
        Negacyclic.polymul (Array.map float_of_int a) (Array.map float_of_int b)
        |> Array.map (fun x -> Int64.to_int (Int64.of_float (Float.round x)))
      in
      via_fft = exact)

(* ------------------------------------------------------------------ *)
(* Params plumbing                                                     *)
(* ------------------------------------------------------------------ *)

let roundtrip p =
  let buf = Buffer.create 128 in
  Params.write buf p;
  Params.read (Wire.reader_of_string (Buffer.contents buf))

let test_params_transform_roundtrip () =
  Alcotest.(check bool) "fft roundtrips" true (Params.equal (roundtrip Params.test) Params.test);
  Alcotest.(check bool) "ntt roundtrips" true
    (Params.equal (roundtrip ntt_test_params) ntt_test_params);
  Alcotest.(check bool) "transform survives the wire" true
    ((roundtrip ntt_test_params).Params.transform = Transform.Ntt)

let test_params_ntt_validation () =
  (* Identical numeric parameters: fine under FFT, rejected under NTT
     because the worst-case product magnitude exceeds the CRT modulus
     headroom. *)
  let big transform =
    Params.validate
      {
        (Params.with_transform Params.test transform) with
        Params.tlwe = { Params.ring_n = 1 lsl 18; k = 1; tlwe_stdev = 2.0 ** -30.0 };
        tgsw = { Params.l = 2; bg_bit = 16 };
      }
  in
  Alcotest.(check bool) "headroom params valid under fft" true (big Transform.Fft = Ok ());
  Alcotest.(check bool) "headroom params invalid under ntt" true
    (match big Transform.Ntt with Error _ -> true | Ok () -> false);
  let huge_ring transform =
    Params.validate
      {
        (Params.with_transform Params.test transform) with
        Params.tlwe = { Params.ring_n = 1 lsl 21; k = 1; tlwe_stdev = 2.0 ** -30.0 };
      }
  in
  Alcotest.(check bool) "2^21 ring valid under fft" true (huge_ring Transform.Fft = Ok ());
  Alcotest.(check bool) "2^21 ring exceeds ntt 2-adicity" true
    (match huge_ring Transform.Ntt with Error _ -> true | Ok () -> false)

(* One BSKY blob serves both transforms: written from an FFT key and read
   under FFT and under NTT parameters, each re-read key gives NAND outputs
   bit-identical to the generated key's. *)
let test_one_key_blob_serves_both_transforms () =
  let sk, ck = Lazy.force fft_keys in
  let buf = Buffer.create (1 lsl 20) in
  Bootstrap.write buf ck.Gates.bootstrap_key;
  let blob = Buffer.contents buf in
  let under p =
    { ck with Gates.cloud_params = p; bootstrap_key = Bootstrap.read p (Wire.reader_of_string blob) }
  in
  let fft_ck = under Params.test and ntt_ck = under ntt_test_params in
  let rng = Rng.create ~seed:24 () in
  for _ = 1 to 20 do
    let a = Gates.encrypt_bit rng sk (Rng.bool rng) in
    let b = Gates.encrypt_bit rng sk (Rng.bool rng) in
    let expected = Gates.nand_gate ck a b in
    Alcotest.(check bool) "fft read: same bits" true (Gates.nand_gate fft_ck a b = expected);
    Alcotest.(check bool) "ntt read: same bits" true (Gates.nand_gate ntt_ck a b = expected)
  done

(* ------------------------------------------------------------------ *)
(* Cross-transform differential over random netlists                   *)
(* ------------------------------------------------------------------ *)

let random_bits rng n = Array.init n (fun _ -> Rng.bool rng)

(* The same random netlist under FFT parameters and NTT parameters must
   decrypt to the same plaintexts — equal to the plain-netlist truth — on
   the sequential, domain-parallel and multi-process executors.  The
   keysets share a seed but not ciphertext bits (different key formats),
   so the comparison is at the plaintext level; within each transform the
   executors must also stay ciphertext-bit-exact with each other. *)
let test_cross_transform_netlists =
  QCheck.Test.make ~name:"fft/ntt netlists decrypt identically on cpu/par/dist" ~count:2
    QCheck.(pair (int_range 0 10_000) (int_range 0 10_000))
    (fun (s1, s2) ->
      let net = Gen_circuit.random ~seed:(3 + s1) () in
      let ins = random_bits (Rng.create ~seed:(4000 + s2) ()) (Netlist.input_count net) in
      let plain = Array.of_list (List.map snd (Plain_eval.run net ins)) in
      let decrypted_under (sk, ck) =
        let rng = Rng.create ~seed:(5000 + s2) () in
        let cts = Array.map (Gates.encrypt_bit rng sk) ins in
        let seq_out, _ = Runs.cpu ck net cts in
        let par_out, _ = Runs.par ~workers:2 ck net cts in
        let dist_out, _ = Runs.dist (Dist_eval.config 2) ck net cts in
        if par_out <> seq_out then
          QCheck.Test.fail_report "par executor not bit-exact with sequential";
        if dist_out <> seq_out then
          QCheck.Test.fail_report "dist executor not bit-exact with sequential";
        Array.map (Gates.decrypt_bit sk) seq_out
      in
      let fft_bits = decrypted_under (Lazy.force fft_keys) in
      let ntt_bits = decrypted_under (Lazy.force ntt_keys) in
      if fft_bits <> plain then QCheck.Test.fail_report "fft run disagrees with plaintext";
      if ntt_bits <> plain then QCheck.Test.fail_report "ntt run disagrees with plaintext";
      true)

(* ------------------------------------------------------------------ *)
(* Precompute: no table builds once worker domains are running          *)
(* ------------------------------------------------------------------ *)

(* Par_eval precomputes transform tables before its domains run a job;
   with the cache warm, a parallel NTT run must perform zero further
   table constructions (Ntt.builds is a monotone build counter, so this
   is a table-initialized check, not a timing heuristic). *)
let test_par_run_builds_no_tables () =
  let sk, ck = Lazy.force ntt_keys in
  let net = Gen_circuit.wide ~width:6 ~depth:2 in
  let rng = Rng.create ~seed:31 () in
  let ins = random_bits rng 7 in
  let cts = Array.map (Gates.encrypt_bit rng sk) ins in
  Params.precompute ck.Gates.cloud_params;
  let ring_n = ck.Gates.cloud_params.Params.tlwe.Params.ring_n in
  Alcotest.(check bool) "ntt tables ready before the run" true (Ntt.tables_ready ring_n);
  let b0 = Ntt.builds () in
  let _, _ = Runs.par ~workers:4 ck net cts in
  Alcotest.(check int) "no ntt table builds during the parallel run" b0 (Ntt.builds ());
  Alcotest.(check bool) "fft transform tables also ready" true
    (Transform.tables_ready Transform.Ntt ring_n)

(* Must run before anything else: in a spawned worker process this serves
   the gate protocol and never returns. *)
let () = Dist_eval.worker_entry ()

let () =
  Alcotest.run "transform"
    [
      ( "ntt-core",
        [
          Alcotest.test_case "polymul exact at gadget range" `Quick
            test_ntt_polymul_exact_gadget_range;
          Alcotest.test_case "roundtrip" `Quick test_ntt_roundtrip;
          Alcotest.test_case "backward destroys spectrum" `Quick
            test_ntt_backward_destroys_spectrum;
          Alcotest.test_case "mul_add accumulates" `Quick test_ntt_mul_add_accumulates;
          QCheck_alcotest.to_alcotest test_fft_ntt_polymul_agree;
        ] );
      ( "params",
        [
          Alcotest.test_case "transform wire roundtrip" `Quick test_params_transform_roundtrip;
          Alcotest.test_case "ntt validation" `Quick test_params_ntt_validation;
          Alcotest.test_case "one key blob serves both transforms" `Quick
            test_one_key_blob_serves_both_transforms;
        ] );
      ( "differential",
        [ QCheck_alcotest.to_alcotest test_cross_transform_netlists ] );
      ( "precompute",
        [ Alcotest.test_case "no mid-flight table builds" `Slow test_par_run_builds_no_tables ] );
    ]
