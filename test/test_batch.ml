(* The batched key-streaming execution path (the one row kernel:
   Bootstrap.batch_rows_into / Keyswitch.apply_batch_rows_into /
   Gates.bootstrap_batch, and the batch knob of the executors' wave engine,
   whose launches gates and LUT groups share).

   The contract under test is bit-exactness: the batched kernel reorders the
   *loop nest* (bootstrapping-key entry outermost, batch member innermost)
   but not any per-gate operation sequence, so every batch size must produce
   the very same ciphertexts as the scalar per-gate walk.  The LUT cells'
   share of the kernel is pinned cell by cell in test_lut.ml. *)

module Rng = Pytfhe_util.Rng
module Wire = Pytfhe_util.Wire
module Netlist = Pytfhe_circuit.Netlist
module Gate = Pytfhe_circuit.Gate
module Levelize = Pytfhe_circuit.Levelize
module Params = Pytfhe_tfhe.Params
module Gates = Pytfhe_tfhe.Gates
module Lwe = Pytfhe_tfhe.Lwe
module Lwe_array = Pytfhe_tfhe.Lwe_array
open Pytfhe_backend

let keys = lazy (Gates.key_gen (Rng.create ~seed:909 ()) Params.test)

(* ------------------------------------------------------------------ *)
(* Lwe_array storage                                                   *)
(* ------------------------------------------------------------------ *)

(* Uniform canonical torus values: every int32 bit pattern is a legal
   ciphertext word, so storage tests need no crypto. *)
let random_sample rng ~n =
  { Lwe.a = Array.init n (fun _ -> Rng.bits32 rng land 0xFFFFFFFF); b = Rng.bits32 rng land 0xFFFFFFFF }

let random_wave rng ~n len = Array.init len (fun _ -> random_sample rng ~n)

let raises_invalid f =
  try
    ignore (f ());
    false
  with Invalid_argument _ -> true

let test_lwe_array_roundtrip =
  QCheck.Test.make ~name:"lwe_array of_samples/get/set/to_samples = identity" ~count:50
    QCheck.(triple (int_range 1 17) (int_range 1 9) small_int)
    (fun (n, len, seed) ->
      let rng = Rng.create ~seed:(7000 + seed) () in
      let wave = random_wave rng ~n len in
      let t = Lwe_array.of_samples ~n wave in
      if Lwe_array.length t <> len || Lwe_array.dim t <> n then
        QCheck.Test.fail_report "shape lost";
      if Lwe_array.to_samples t <> wave then QCheck.Test.fail_report "to_samples differs";
      Array.iteri
        (fun r s -> if Lwe_array.get t r <> s then QCheck.Test.fail_report "get differs")
        wave;
      (* Overwrite through set and read back through mask/body. *)
      let s' = random_sample rng ~n in
      let r = Rng.int rng len in
      Lwe_array.set t r s';
      if Lwe_array.get t r <> s' then QCheck.Test.fail_report "set/get differs";
      Array.iteri
        (fun i v -> if Lwe_array.mask t r i <> v then QCheck.Test.fail_report "mask read differs")
        s'.Lwe.a;
      Lwe_array.body t r = s'.Lwe.b)

let test_lwe_array_row_ops =
  QCheck.Test.make ~name:"lwe_array row ops bit-exact with Lwe record ops" ~count:50
    QCheck.(pair (int_range 1 16) small_int)
    (fun (n, seed) ->
      let rng = Rng.create ~seed:(8000 + seed) () in
      let wave = random_wave rng ~n 4 in
      let t = Lwe_array.of_samples ~n wave in
      let dst = Lwe_array.create ~n 4 in
      Lwe_array.add_into ~dst ~drow:0 ~a:t ~arow:0 ~b:t ~brow:1;
      Lwe_array.add_into ~dst ~drow:3 ~a:t ~arow:3 ~b:t ~brow:2;
      Lwe_array.get dst 0 = Lwe.add wave.(0) wave.(1)
      && Lwe_array.get dst 3 = Lwe.add wave.(3) wave.(2))

let test_lwe_array_aliasing =
  QCheck.Test.make ~name:"lwe_array *_into safe when dst aliases sources" ~count:50
    QCheck.(pair (int_range 1 16) small_int)
    (fun (n, seed) ->
      let rng = Rng.create ~seed:(8100 + seed) () in
      let wave = random_wave rng ~n 3 in
      (* dst row = a row: t.(0) <- t.(0) + t.(1). *)
      let t = Lwe_array.of_samples ~n wave in
      Lwe_array.add_into ~dst:t ~drow:0 ~a:t ~arow:0 ~b:t ~brow:1;
      if Lwe_array.get t 0 <> Lwe.add wave.(0) wave.(1) then
        QCheck.Test.fail_report "add_into onto own source row differs";
      (* dst = both sources: t.(1) <- t.(1) + t.(1) through overlapping
         slices of the same storage. *)
      let s = Lwe_array.slice t ~pos:1 ~len:2 in
      Lwe_array.add_into ~dst:s ~drow:0 ~a:t ~arow:1 ~b:s ~brow:0;
      Lwe_array.get t 1 = Lwe.add wave.(1) wave.(1))

let test_lwe_array_slice_blit () =
  let rng = Rng.create ~seed:606 () in
  let n = 5 in
  let wave = random_wave rng ~n 6 in
  let t = Lwe_array.of_samples ~n wave in
  (* Slices are aliasing views in both directions. *)
  let s = Lwe_array.slice t ~pos:2 ~len:3 in
  Alcotest.(check int) "slice length" 3 (Lwe_array.length s);
  Alcotest.(check bool) "slice rows are parent rows" true
    (Lwe_array.get s 0 = wave.(2) && Lwe_array.get s 2 = wave.(4));
  let fresh = random_sample rng ~n in
  Lwe_array.set s 1 fresh;
  Alcotest.(check bool) "write through slice visible in parent" true (Lwe_array.get t 3 = fresh);
  Lwe_array.set_trivial t 2 12345;
  Alcotest.(check bool) "write through parent visible in slice" true
    (Lwe_array.get s 0 = Lwe.trivial ~n 12345);
  (* Whole-row blit. *)
  let dst = Lwe_array.create ~n 4 in
  Lwe_array.blit ~src:t ~src_pos:1 ~dst ~dst_pos:2 ~len:2;
  Alcotest.(check bool) "blit copies rows" true
    (Lwe_array.get dst 2 = Lwe_array.get t 1 && Lwe_array.get dst 3 = Lwe_array.get t 2);
  Alcotest.(check bool) "blit leaves other rows" true (Lwe_array.get dst 0 = Lwe.trivial ~n 0);
  (* Bounds and shape enforcement. *)
  Alcotest.(check bool) "slice pos out of bounds" true
    (raises_invalid (fun () -> Lwe_array.slice t ~pos:5 ~len:2));
  Alcotest.(check bool) "slice negative" true
    (raises_invalid (fun () -> Lwe_array.slice t ~pos:(-1) ~len:1));
  Alcotest.(check bool) "get row out of bounds" true (raises_invalid (fun () -> Lwe_array.get t 6));
  Alcotest.(check bool) "set dimension mismatch" true
    (raises_invalid (fun () -> Lwe_array.set t 0 (random_sample rng ~n:(n + 1))));
  Alcotest.(check bool) "blit dimension mismatch" true
    (raises_invalid (fun () ->
         Lwe_array.blit ~src:t ~src_pos:0 ~dst:(Lwe_array.create ~n:(n + 1) 4) ~dst_pos:0 ~len:1));
  Alcotest.(check bool) "blit range out of bounds" true
    (raises_invalid (fun () -> Lwe_array.blit ~src:t ~src_pos:5 ~dst ~dst_pos:0 ~len:2));
  Alcotest.(check bool) "create rejects n < 1" true
    (raises_invalid (fun () -> Lwe_array.create ~n:0 3))

let test_lwe_array_wire () =
  let rng = Rng.create ~seed:607 () in
  let n = 7 in
  let t = Lwe_array.of_samples ~n (random_wave rng ~n 5) in
  let buf = Buffer.create 256 in
  Lwe_array.write buf t;
  let bytes = Buffer.contents buf in
  let t' = Lwe_array.read (Wire.reader_of_string bytes) in
  Alcotest.(check bool) "roundtrip preserves every row" true
    (Lwe_array.to_samples t' = Lwe_array.to_samples t);
  (* Re-serialization is byte-identical: the format has one encoding. *)
  let buf2 = Buffer.create 256 in
  Lwe_array.write buf2 t';
  Alcotest.(check string) "re-encoding byte-identical" bytes (Buffer.contents buf2);
  (* Truncations at every prefix length must raise Corrupt, never return. *)
  let truncated_rejected =
    List.for_all
      (fun keep ->
        try
          ignore (Lwe_array.read (Wire.reader_of_string (String.sub bytes 0 keep)));
          false
        with Wire.Corrupt _ -> true)
      [ 0; 3; 4; 12; 20; String.length bytes - 1 ]
  in
  Alcotest.(check bool) "every truncation raises Corrupt" true truncated_rejected;
  (* A flipped magic byte must be rejected too. *)
  let corrupt = Bytes.of_string bytes in
  Bytes.set corrupt 0 'X';
  Alcotest.(check bool) "corrupt magic raises" true
    (try
       ignore (Lwe_array.read (Wire.reader_of_string (Bytes.to_string corrupt)));
       false
     with Wire.Corrupt _ -> true)

(* The row maps the cursor combines with are the record references'
   linear maps, word for word, also when they write over a source row. *)
let test_row_maps_match_records =
  QCheck.Test.make ~name:"row combine, lut_combine, lut_to_classic and neg = record references"
    ~count:50
    QCheck.(pair (int_range 1 17) small_int)
    (fun (n, seed) ->
      let rng = Rng.create ~seed () in
      let ops = random_wave rng ~n 3 in
      let rows = Lwe_array.of_samples ~n ops in
      let out = Lwe_array.create ~n 1 in
      let row_is label expected =
        if Lwe_array.get out 0 <> expected then QCheck.Test.fail_report label
      in
      List.iter
        (fun plan ->
          Gates.combine plan ~dst:out ~drow:0 ~a:rows ~arow:0 ~b:rows ~brow:1;
          row_is "combine" (Record_ref.combine ~n plan ops.(0) ops.(1)))
        Gates.
          [ nand_plan; and_plan; or_plan; nor_plan; andny_plan; andyn_plan; orny_plan; oryn_plan;
            xor_plan; xnor_plan ];
      for arity = 1 to 3 do
        Gates.lut_combine ~dst:out ~drow:0 rows (Array.init arity Fun.id);
        row_is "lut_combine" (Record_ref.lut_combine ~n (Array.sub ops 0 arity))
      done;
      Gates.lut_to_classic ~dst:out ~drow:0 rows 2;
      row_is "lut_to_classic" (Record_ref.lut_to_classic ops.(2));
      Lwe_array.neg_into ~dst:out ~drow:0 ~a:rows ~arow:1;
      row_is "neg_into" (Lwe.neg ops.(1));
      (* In place, over the source row itself. *)
      Gates.combine Gates.xor_plan ~dst:rows ~drow:1 ~a:rows ~arow:0 ~b:rows ~brow:1;
      Gates.lut_combine ~dst:rows ~drow:0 rows [| 0; 2 |];
      Lwe_array.get rows 1 = Record_ref.combine ~n Gates.xor_plan ops.(0) ops.(1)
      && Lwe_array.get rows 0 = Record_ref.lut_combine ~n [| ops.(0); ops.(2) |])

(* Resident memory in KiB, where /proc is mounted. *)
let vm_rss_kib () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | status ->
    List.find_map
      (fun line ->
        if String.starts_with ~prefix:"VmRSS:" line then Scanf.sscanf line "VmRSS: %d kB" Option.some
        else None)
      (String.split_on_char '\n' status)
  | exception Sys_error _ -> None

(* A 20-byte LARR header declaring a huge shard must be refused from the
   bytes left, before the rows it claims are allocated. *)
let test_lwe_array_read_bounded () =
  let frame n len =
    let buf = Buffer.create 20 in
    Wire.write_magic buf "LARR";
    Wire.write_i64 buf n;
    Wire.write_i64 buf len;
    Buffer.contents buf
  in
  let refused bytes =
    match Lwe_array.read (Wire.reader_of_string bytes) with
    | _ -> false
    | exception Wire.Corrupt _ -> true
  in
  let before = vm_rss_kib () in
  Alcotest.(check bool) "8192 x 8192 frame refused" true (refused (frame 8192 8192));
  (match (before, vm_rss_kib ()) with
  | Some b, Some a ->
    Alcotest.(check bool)
      (Printf.sprintf "resident memory grew by %d KiB" (a - b))
      true
      (a - b < 16 * 1024)
  | _ -> ());
  Alcotest.(check bool) "2^24 x 2^24 frame refused" true
    (refused (frame (1 lsl 24) (1 lsl 24)))

(* ------------------------------------------------------------------ *)
(* Gate-level batch kernel                                             *)
(* ------------------------------------------------------------------ *)

let test_bootstrap_batch_matches_scalar () =
  let sk, ck = Lazy.force keys in
  let rng = Rng.create ~seed:88 () in
  let bc = Gates.batch_context ck ~cap:4 in
  Alcotest.(check int) "capacity" 4 (Gates.batch_capacity bc);
  let n = ck.Gates.cloud_params.Params.lwe.Params.n in
  let a = Gates.encrypt_bit rng sk true in
  let b = Gates.encrypt_bit rng sk false in
  (* Mixed gate types in one batch: they all share the sign bootstrap. *)
  let plans = [| Gates.and_plan; Gates.xor_plan; Gates.nor_plan |] in
  let combined = Array.map (fun pl -> Record_ref.combine ~n pl a b) plans in
  let batched = Gates.bootstrap_batch_rows bc (Lwe_array.of_samples ~n combined) in
  Array.iteri
    (fun i gate ->
      Alcotest.(check bool) "batched row = keyset-level gate" true
        (Lwe_array.get batched i = gate ck a b))
    [| Gates.and_gate; Gates.xor_gate; Gates.nor_gate |];
  let c = Gates.batch_counters bc in
  Alcotest.(check int) "one launch" 1 c.Gates.batch_launches;
  Alcotest.(check int) "three gates batched" 3 c.Gates.batch_gates;
  Alcotest.(check bool) "bsk rows streamed, at most once per key entry" true
    (c.Gates.bsk_rows > 0 && c.Gates.bsk_rows <= n);
  Alcotest.(check bool) "ks blocks streamed" true (c.Gates.ks_blocks > 0);
  Gates.reset_batch_counters bc;
  let c = Gates.batch_counters bc in
  Alcotest.(check int) "counters reset" 0
    (c.Gates.batch_launches + c.Gates.batch_gates + c.Gates.bsk_rows + c.Gates.ks_blocks);
  Alcotest.(check int) "empty batch is a no-op" 0
    (Lwe_array.length (Gates.bootstrap_batch_rows bc (Lwe_array.create ~n 0)));
  Alcotest.(check bool) "rejects cap < 1" true
    (try
       ignore (Gates.batch_context ck ~cap:0);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "rejects oversized batch" true
    (try
       ignore (Gates.bootstrap_batch_rows bc (Lwe_array.of_samples ~n (Array.make 5 a)));
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Executor-level bit-exactness                                        *)
(* ------------------------------------------------------------------ *)

let test_batched_matches_scalar =
  QCheck.Test.make
    ~name:"batched cpu/multicore bit-exact with scalar for batch 1/3/8/widest-wave" ~count:4
    QCheck.(pair (int_range 0 10_000) (int_range 0 10_000))
    (fun (s1, s2) ->
      let sk, ck = Lazy.force keys in
      let net = Gen_circuit.random ~seed:(1 + s1) () in
      let rng = Rng.create ~seed:(2000 + s2) () in
      let ins = Array.init (Netlist.input_count net) (fun _ -> Rng.bool rng) in
      let cts = Array.map (Gates.encrypt_bit rng sk) ins in
      let scalar_out, _ = Runs.cpu ~opts:{ Executor.default_opts with batch = 1 } ck net cts in
      let plain = Array.of_list (List.map snd (Plain_eval.run net ins)) in
      if Array.map (Gates.decrypt_bit sk) scalar_out <> plain then
        QCheck.Test.fail_report "scalar path disagrees with plain_eval";
      let widest = Array.fold_left max 1 (Levelize.run net).Levelize.widths in
      List.for_all
        (fun b ->
          let cpu_out, _ = Runs.cpu ~opts:{ Executor.default_opts with batch = b } ck net cts in
          let par_out, _ = Runs.par ~workers:2 ~opts:{ Executor.default_opts with batch = b } ck net cts in
          cpu_out = scalar_out && par_out = scalar_out)
        [ 1; 3; 8; widest ])

let test_non_divisible_wave () =
  let sk, ck = Lazy.force keys in
  (* Waves of 5 gates with batch 3 split 3 + 2 — the short trailing
     sub-batch must stay bit-exact and be counted as its own launch. *)
  let net = Gen_circuit.wide ~width:5 ~depth:2 in
  let rng = Rng.create ~seed:404 () in
  let ins = Array.init 6 (fun _ -> Rng.bool rng) in
  let cts = Array.map (Gates.encrypt_bit rng sk) ins in
  let scalar_out, _ = Runs.cpu ~opts:{ Executor.default_opts with batch = 1 } ck net cts in
  let outs, st = Runs.cpu ~opts:{ Executor.default_opts with batch = 3 } ck net cts in
  Alcotest.(check bool) "ciphertexts identical" true (outs = scalar_out);
  Alcotest.(check (array bool)) "decrypts to plain eval"
    (Array.of_list (List.map snd (Plain_eval.run net ins)))
    (Array.map (Gates.decrypt_bit sk) outs);
  Alcotest.(check int) "batch size recorded" 3 st.Tfhe_eval.batch_size;
  Alcotest.(check int) "two launches per 5-wide wave" 4 st.Tfhe_eval.batch_launches;
  Alcotest.(check bool) "bsk traffic accounted" true (st.Tfhe_eval.bsk_bytes_streamed > 0);
  Alcotest.(check bool) "ks traffic accounted" true (st.Tfhe_eval.ks_bytes_streamed > 0);
  Alcotest.(check bool) "rejects batch < 1" true
    (try
       ignore (Runs.cpu ~opts:{ Executor.default_opts with batch = 0 } ck net cts);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "par_eval rejects batch < 1" true
    (try
       ignore (Runs.par ~workers:2 ~opts:{ Executor.default_opts with batch = 0 } ck net cts);
       false
     with Invalid_argument _ -> true)

let test_key_traffic_drops_with_batch () =
  let sk, ck = Lazy.force keys in
  let net = Gen_circuit.wide ~width:8 ~depth:2 in
  let rng = Rng.create ~seed:405 () in
  let ins = Array.init 9 (fun _ -> Rng.bool rng) in
  let cts = Array.map (Gates.encrypt_bit rng sk) ins in
  let out1, st1 = Runs.cpu ~opts:{ Executor.default_opts with batch = 1 } ck net cts in
  let out8, st8 = Runs.cpu ~opts:{ Executor.default_opts with batch = 8 } ck net cts in
  Alcotest.(check bool) "batch sizes agree on ciphertexts" true (out1 = out8);
  (* Streaming the key once per 8-gate wave instead of once per gate must
     cut accounted key traffic by far more than 2x. *)
  Alcotest.(check bool) "bsk traffic drops at least 2x" true
    (st1.Tfhe_eval.bsk_bytes_streamed >= 2 * st8.Tfhe_eval.bsk_bytes_streamed);
  Alcotest.(check bool) "ks traffic drops too" true
    (st1.Tfhe_eval.ks_bytes_streamed > st8.Tfhe_eval.ks_bytes_streamed)

(* Gates and LUT groups share launches: a wave of w jobs takes ⌈w / cap⌉
   of them whatever its mix, with the batch-1 ciphertexts. *)
let test_mixed_wave_launches () =
  let sk, ck = Lazy.force keys in
  (* Level 1 holds a classic gate and two reencodes, level 2 an arity-2
     group over them, level 3 a gate over its classic view. *)
  let mixed = Netlist.create () in
  let a = Netlist.input mixed "a" and b = Netlist.input mixed "b" in
  let c = Netlist.input mixed "c" in
  let g = Netlist.gate mixed Gate.And a b in
  let reencode x = Netlist.lut mixed ~table:0b10 [| x |] in
  let x = Netlist.lut mixed ~table:0x6 [| reencode a; reencode c |] in
  Netlist.mark_output mixed "g" g;
  Netlist.mark_output mixed "x" x;
  Netlist.mark_output mixed "y" (Netlist.gate mixed Gate.Or x g);
  (* Batch-1 reference first; then each capacity's run, checked against
     it and the launch formula. *)
  let check net =
    let rng = Rng.create ~seed:406 () in
    let ins = Array.init (Netlist.input_count net) (fun _ -> Rng.bool rng) in
    let cts = Array.map (Gates.encrypt_bit rng sk) ins in
    let run batch = Runs.cpu ~opts:{ Executor.default_opts with batch } ck net cts in
    let reference, _ = run 1 in
    Alcotest.(check (array bool)) "decrypts to plain eval"
      (Array.of_list (List.map snd (Plain_eval.run net ins)))
      (Array.map (Gates.decrypt_bit sk) reference);
    fun cap ->
      let outs, st = run cap in
      Alcotest.(check bool) (Printf.sprintf "batch %d ciphertexts = batch 1" cap) true
        (outs = reference);
      Alcotest.(check int) (Printf.sprintf "batch %d: one launch per cap jobs" cap)
        (Array.fold_left (fun acc w -> acc + ((w + cap - 1) / cap)) 0 st.Tfhe_eval.wave_width)
        st.Tfhe_eval.batch_launches;
      st
  in
  List.iter
    (fun seed ->
      let at = check (Gen_circuit.random_lut ~seed ()) in
      List.iter (fun cap -> ignore (at cap)) [ 1; 3; 8 ])
    [ 3; 5; 8 ];
  let at = check mixed in
  ignore (at 1);
  ignore (at 3);
  let st = at 8 in
  Alcotest.(check (array int)) "mixed netlist: three waves" [| 3; 1; 1 |] st.Tfhe_eval.wave_width;
  Alcotest.(check int) "mixed netlist: one launch per wave at batch 8" 3
    st.Tfhe_eval.batch_launches

(* Launches over slices of a wave's struct-of-arrays rows must produce
   the one-gate launch's exact ciphertexts at every capacity, on both the
   sequential and the multicore executor.  The multiprocess executor is
   covered in test_dist.ml. *)
let test_soa_matches_one_gate =
  QCheck.Test.make ~name:"soa batched layout bit-exact with one-gate launches" ~count:3
    QCheck.(pair (int_range 0 10_000) (int_range 0 10_000))
    (fun (s1, s2) ->
      let sk, ck = Lazy.force keys in
      let net = Gen_circuit.random ~seed:(11 + s1) () in
      let rng = Rng.create ~seed:(3000 + s2) () in
      let ins = Array.init (Netlist.input_count net) (fun _ -> Rng.bool rng) in
      let cts = Array.map (Gates.encrypt_bit rng sk) ins in
      let scalar_out, _ = Runs.cpu ~opts:{ Executor.default_opts with batch = 1 } ck net cts in
      let widest = Array.fold_left max 1 (Levelize.run net).Levelize.widths in
      List.for_all
        (fun b ->
          let opts = { Executor.default_opts with batch = b } in
          let soa_out, _ = Runs.cpu ~opts ck net cts in
          let par_soa, _ = Runs.par ~workers:2 ~opts ck net cts in
          soa_out = scalar_out && par_soa = scalar_out)
        [ 1; 3; 8; widest ])

(* y_i <- y_i XOR NOT y_(i+1 mod 8) for 12 rounds: 96 bootstraps in
   8-wide waves, 96 NOTs, 8 outputs. *)
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

(* Words allocated by [f]; the minor collections fold the live minor
   heap into the counter. *)
let allocated_words f =
  Gc.minor ();
  let a0 = Gc.allocated_bytes () in
  f ();
  Gc.minor ();
  (Gc.allocated_bytes () -. a0) /. float_of_int (Sys.word_size / 8)

(* What a cpu run allocates beyond the kernel's own words per row (an
   8-row launch measured here) stays small: values, combined rows and
   outputs live in Lwe_array rows, not in one record per job. *)
let test_run_allocation () =
  let sk, ck = Lazy.force keys in
  let rng = Rng.create ~seed:707 () in
  let n = ck.Gates.cloud_params.Params.lwe.Params.n in
  let bit () = Gates.encrypt_bit rng sk (Rng.bool rng) in
  let bc = Gates.batch_context ck ~cap:8 in
  let rows = Lwe_array.of_samples ~n (Array.init 8 (fun _ -> bit ())) in
  ignore (Gates.bootstrap_batch_rows bc rows);
  let kernel = allocated_words (fun () -> ignore (Gates.bootstrap_batch_rows bc rows)) /. 8.0 in
  let net = lattice () in
  let cts = Array.init 8 (fun _ -> bit ()) in
  let run () = Executor.run Executor.Cpu ck (Wave.Netlist net) cts in
  ignore (run ());
  let stats = ref None in
  let words = allocated_words (fun () -> stats := Some (snd (run ()))) in
  let st = Option.get !stats in
  Alcotest.(check int) "bootstraps" 96 st.Executor.bootstraps_executed;
  Alcotest.(check int) "nots" 96 st.Executor.nots_executed;
  let beyond = (words -. (kernel *. 96.0)) /. 96.0 in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f words per bootstrap beyond the kernel's %.0f per row" beyond kernel)
    true (beyond <= 400.0)

let test_executor_batch_knob () =
  let sk, ck = Lazy.force keys in
  let net = Gen_circuit.wide ~width:3 ~depth:2 in
  let rng = Rng.create ~seed:505 () in
  let ins = Array.init 4 (fun _ -> Rng.bool rng) in
  let cts = Array.map (Gates.encrypt_bit rng sk) ins in
  let module Cpu = (val Executor.cpu) in
  let scalar_out, _ = Cpu.run ~opts:{ Executor.default_opts with batch = 1 } ck net cts in
  let outs, st = Cpu.run ~opts:{ Executor.default_opts with batch = 2 } ck net cts in
  Alcotest.(check bool) "executor cpu batched bit-exact" true (outs = scalar_out);
  (match st.Executor.detail with
  | Executor.Cpu_stats s ->
    Alcotest.(check int) "batch size surfaced through detail" 2 s.Tfhe_eval.batch_size
  | _ -> Alcotest.fail "expected cpu stats");
  let module Mc = (val Executor.multicore ~workers:2 ()) in
  let outs, st = Mc.run ~opts:{ Executor.default_opts with batch = 2 } ck net cts in
  Alcotest.(check bool) "executor multicore batched bit-exact" true (outs = scalar_out);
  (match st.Executor.detail with
  | Executor.Multicore_stats s ->
    Alcotest.(check int) "multicore batch size surfaced" 2 s.Par_eval.batch_size;
    Alcotest.(check bool) "multicore bsk traffic accounted" true
      (s.Par_eval.bsk_bytes_streamed > 0)
  | _ -> Alcotest.fail "expected multicore stats")

let () =
  Alcotest.run "batch"
    [
      ( "lwe_array",
        [
          QCheck_alcotest.to_alcotest test_lwe_array_roundtrip;
          QCheck_alcotest.to_alcotest test_lwe_array_row_ops;
          QCheck_alcotest.to_alcotest test_lwe_array_aliasing;
          Alcotest.test_case "slice and blit" `Quick test_lwe_array_slice_blit;
          Alcotest.test_case "wire roundtrip and rejection" `Quick test_lwe_array_wire;
          Alcotest.test_case "LARR frames are refused before allocating" `Quick
            test_lwe_array_read_bounded;
          QCheck_alcotest.to_alcotest test_row_maps_match_records;
        ] );
      ( "kernel",
        [
          Alcotest.test_case "bootstrap_batch = scalar bootstraps" `Slow
            test_bootstrap_batch_matches_scalar;
        ] );
      ( "executors",
        [
          QCheck_alcotest.to_alcotest test_batched_matches_scalar;
          QCheck_alcotest.to_alcotest test_soa_matches_one_gate;
          Alcotest.test_case "non-divisible wave" `Slow test_non_divisible_wave;
          Alcotest.test_case "mixed waves share launches" `Slow test_mixed_wave_launches;
          Alcotest.test_case "key traffic drops with batch" `Slow
            test_key_traffic_drops_with_batch;
          Alcotest.test_case "executor ?batch knob" `Slow test_executor_batch_knob;
          Alcotest.test_case "a run materializes no per-job records" `Slow test_run_allocation;
        ] );
    ]
