(* Differential and fault-injection tests for the multi-process executor.

   The cross-backend suite is the repo's strongest correctness statement:
   five executors with nothing in common above the gate kernel — plain
   netlist walk, streamed binary, sequential encrypted, domain-parallel
   encrypted, and multi-process encrypted — must agree bit-for-bit on
   seeded random DAGs.  The fault suite then breaks the distributed one on
   purpose (real SIGKILL, real truncated frames, real stalls) and checks
   the coordinator recovers without losing bit-exactness. *)

module Rng = Pytfhe_util.Rng
module Netlist = Pytfhe_circuit.Netlist
module Binary = Pytfhe_circuit.Binary
module Stats = Pytfhe_circuit.Stats
module Gates = Pytfhe_tfhe.Gates
module Trace = Pytfhe_obs.Trace
module Metrics = Pytfhe_obs.Metrics
open Pytfhe_backend

let keys = lazy (Gates.key_gen (Rng.create ~seed:909 ()) Pytfhe_tfhe.Params.test)

let random_bits rng n = Array.init n (fun _ -> Rng.bool rng)

(* Sequential encrypted reference plus plaintext truth for [net]/[ins]. *)
let reference ck net cts = fst (Runs.cpu ck net cts)

(* ------------------------------------------------------------------ *)
(* Cross-backend differential suite                                    *)
(* ------------------------------------------------------------------ *)

let test_cross_backend =
  QCheck.Test.make ~name:"cross-backend: plain/stream/tfhe/par/dist bit-exact, workers 1/2/4"
    ~count:3
    QCheck.(pair (int_range 0 10_000) (int_range 0 10_000))
    (fun (s1, s2) ->
      let sk, ck = Lazy.force keys in
      let net = Gen_circuit.random ~seed:(1 + s1) () in
      let rng = Rng.create ~seed:(2000 + s2) () in
      let ins = random_bits rng (Netlist.input_count net) in
      let plain = Array.of_list (List.map snd (Plain_eval.run net ins)) in
      let stream = Plain_eval.run_binary (Binary.assemble net) ins in
      if stream <> plain then QCheck.Test.fail_report "run_binary disagrees with plain_eval";
      let cts = Array.map (Gates.encrypt_bit rng sk) ins in
      let seq_out = reference ck net cts in
      if Array.map (Gates.decrypt_bit sk) seq_out <> plain then
        QCheck.Test.fail_report "tfhe_eval disagrees with plain_eval";
      List.for_all
        (fun workers ->
          let par_out, _ = Runs.par ~workers ck net cts in
          let dist_out, st = Runs.dist (Dist_eval.config workers) ck net cts in
          par_out = seq_out && dist_out = seq_out
          && st.Dist_eval.workers_started = workers
          && st.Dist_eval.workers_lost = 0)
        [ 1; 2; 4 ])

(* The LUT analog of the cross-backend suite, doubled: the same seeded
   LUT-bearing DAG is run as generated AND after Opt.lut_cover, and every
   executor — plain walk, streamed binary, sequential encrypted (one-gate
   and batched launches), domain-parallel, multi-process — must reproduce the
   original netlist's plaintext truth bit-for-bit on both versions. *)
let test_cross_backend_lut =
  QCheck.Test.make
    ~name:"cross-backend LUT: original and lut_cover-ed bit-exact on all executors" ~count:2
    QCheck.(pair (int_range 0 10_000) (int_range 0 10_000))
    (fun (s1, s2) ->
      let sk, ck = Lazy.force keys in
      let net = Gen_circuit.random_lut ~seed:(1 + s1) () in
      let covered, _ = Pytfhe_synth.Opt.lut_cover net in
      let rng = Rng.create ~seed:(3000 + s2) () in
      let ins = random_bits rng (Netlist.input_count net) in
      let truth = Array.of_list (List.map snd (Plain_eval.run net ins)) in
      List.for_all
        (fun n ->
          let plain = Array.of_list (List.map snd (Plain_eval.run n ins)) in
          if plain <> truth then QCheck.Test.fail_report "lut_cover changed the function";
          let stream = Plain_eval.run_binary (Binary.assemble n) ins in
          if stream <> truth then
            QCheck.Test.fail_report "run_binary disagrees with plain_eval on a LUT netlist";
          let cts = Array.map (Gates.encrypt_bit rng sk) ins in
          let seq_out = reference ck n cts in
          if Array.map (Gates.decrypt_bit sk) seq_out <> truth then
            QCheck.Test.fail_report "tfhe_eval disagrees with plain_eval on a LUT netlist";
          let batched, _ = Runs.cpu ~opts:{ Executor.default_opts with batch = 3 } ck n cts in
          let soa, _ = Runs.cpu ~opts:{ Executor.default_opts with batch = 1 } ck n cts in
          if batched <> seq_out || soa <> seq_out then
            QCheck.Test.fail_report "batched/SoA paths disagree on a LUT netlist";
          List.for_all
            (fun workers ->
              let par_out, _ = Runs.par ~workers ck n cts in
              let par_soa, _ =
                Runs.par ~workers ~opts:{ Executor.default_opts with batch = 3 } ck n cts
              in
              let dist_out, st = Runs.dist (Dist_eval.config workers) ck n cts in
              par_out = seq_out && par_soa = seq_out && dist_out = seq_out
              && st.Dist_eval.workers_lost = 0)
            [ 1; 2; 4 ])
        [ net; covered ])

let test_dist_stats_and_validation () =
  let sk, ck = Lazy.force keys in
  let net = Gen_circuit.wide ~width:4 ~depth:2 in
  let rng = Rng.create ~seed:41 () in
  let ins = random_bits rng 5 in
  let cts = Array.map (Gates.encrypt_bit rng sk) ins in
  let seq_out, seq_stats = Runs.cpu ck net cts in
  let outs, st = Runs.dist (Dist_eval.config 2) ck net cts in
  Alcotest.(check bool) "ciphertexts identical" true (outs = seq_out);
  Alcotest.(check int) "bootstrap totals agree" seq_stats.Tfhe_eval.bootstraps_executed
    st.Dist_eval.bootstraps_executed;
  Alcotest.(check int) "two workers forked" 2 st.Dist_eval.workers_started;
  Alcotest.(check bool) "at least one request per wave" true
    (st.Dist_eval.requests_sent >= Array.length st.Dist_eval.wave_wall);
  Alcotest.(check bool) "keyset shipped" true (st.Dist_eval.keyset_bytes > 0);
  Alcotest.(check bool) "bytes flowed both ways" true
    (st.Dist_eval.bytes_to_workers > 0 && st.Dist_eval.bytes_from_workers > 0);
  Alcotest.(check bool) "worker compute time reported" true (st.Dist_eval.compute_time > 0.0);
  Alcotest.(check bool) "rejects workers < 1" true
    (try ignore (Dist_eval.config 0); false with Invalid_argument _ -> true);
  Alcotest.(check bool) "rejects input arity mismatch" true
    (try ignore (Runs.dist (Dist_eval.config 2) ck net (Array.sub cts 0 2)); false
     with Invalid_argument _ -> true)

(* Every executor counts a LUT rotation group once, in its stats and in
   the summed [bootstraps] trace counter, on [run] and on [run_stream]:
   the count is the compiled program's [Stats] bootstraps — over the
   netlist for [run], over the parsed binary for [run_stream] at the
   default window. *)
let test_bootstrap_counts () =
  let sk, ck = Lazy.force keys in
  let source b =
    let sent = ref false in
    fun () ->
      if !sent then None
      else begin
        sent := true;
        Some b
      end
  in
  List.iteri
    (fun i net ->
      let bytes = Binary.assemble net in
      let on_net = (Stats.compute net).Stats.bootstraps in
      let on_binary = (Stats.compute (Binary.parse bytes)).Stats.bootstraps in
      let rng = Rng.create ~seed:(60 + i) () in
      let cts = Array.map (Gates.encrypt_bit rng sk) (random_bits rng (Netlist.input_count net)) in
      List.iter
        (fun (module E : Executor.S) ->
          let check what expected run =
            let label = Printf.sprintf "net %d %s %s" i E.name what in
            let _, st = run Trace.null in
            Alcotest.(check int) (label ^ ": bootstraps_executed") expected
              st.Executor.bootstraps_executed;
            let obs = Trace.create () in
            let _, st = run obs in
            Alcotest.(check (float 0.)) (label ^ ": summed bootstraps counter")
              (float_of_int st.Executor.bootstraps_executed)
              (List.assoc "bootstraps" (Metrics.counters (Trace.events obs)))
          in
          check "run" on_net (fun obs -> E.run ~opts:{ Executor.default_opts with obs } ck net cts);
          check "run_stream" on_binary (fun obs ->
              E.run_stream ~opts:{ Executor.default_opts with obs } ck (source bytes) cts))
        [ Executor.cpu; Executor.multicore ~workers:2 (); Executor.multiprocess ~workers:2 () ])
    [ Gen_circuit.shared_lut_pair (); Gen_circuit.random_lut ~seed:7 () ];
  Alcotest.(check int) "the shared-pair program is three rotations" 3
    (Stats.compute (Gen_circuit.shared_lut_pair ())).Stats.bootstraps

(* ------------------------------------------------------------------ *)
(* Fault injection                                                     *)
(* ------------------------------------------------------------------ *)

(* Every fault scenario runs the same circuit and demands the same
   outputs as the sequential executor; only the stats differ. *)
let run_with_faults ?request_timeout ?max_retries ?backoff ~workers faults =
  let sk, ck = Lazy.force keys in
  let net = Gen_circuit.wide ~width:6 ~depth:3 in
  let rng = Rng.create ~seed:42 () in
  let ins = random_bits rng 7 in
  let cts = Array.map (Gates.encrypt_bit rng sk) ins in
  let seq_out = reference ck net cts in
  let cfg = Dist_eval.config ?request_timeout ?max_retries ?backoff ~faults workers in
  let outs, st = Runs.dist cfg ck net cts in
  Alcotest.(check bool) "outputs bit-exact despite fault" true (outs = seq_out);
  st

let test_fault_sigkill_mid_wave () =
  (* Worker 1 SIGKILLs itself while holding its second shard; the shard
     must be reassigned to a survivor and the run must stay bit-exact. *)
  let st =
    run_with_faults ~workers:3
      [ { Dist_eval.victim = 1; after_requests = 2; action = Dist_eval.Crash } ]
  in
  Alcotest.(check int) "one worker lost" 1 st.Dist_eval.workers_lost;
  Alcotest.(check bool) "crashed shard reassigned" true (st.Dist_eval.reassignments >= 1)

let test_fault_flipped_frame () =
  (* A framing-correct reply with a corrupted payload must be rejected and
     re-requested — never decoded into a wrong ciphertext, never a hang. *)
  let st =
    run_with_faults ~workers:2
      [ { Dist_eval.victim = 0; after_requests = 1; action = Dist_eval.Flip_reply } ]
  in
  Alcotest.(check bool) "corrupt frame counted" true (st.Dist_eval.corrupt_frames >= 1);
  Alcotest.(check bool) "shard re-requested" true (st.Dist_eval.retries >= 1);
  Alcotest.(check int) "worker survives a flipped frame" 0 st.Dist_eval.workers_lost

let test_fault_truncated_frame () =
  (* Half a frame then EOF: the coordinator must treat it as a dead
     worker, not block forever waiting for the missing bytes. *)
  let st =
    run_with_faults ~workers:2
      [ { Dist_eval.victim = 1; after_requests = 1; action = Dist_eval.Truncate_reply } ]
  in
  Alcotest.(check int) "truncating worker declared lost" 1 st.Dist_eval.workers_lost;
  Alcotest.(check bool) "its shard reassigned" true (st.Dist_eval.reassignments >= 1)

let test_fault_stall_retries () =
  (* A worker that sleeps past the request timeout but eventually answers:
     the deadline must be extended (retry path), not the worker killed. *)
  let st =
    run_with_faults ~workers:2 ~request_timeout:0.15 ~max_retries:3 ~backoff:2.0
      [ { Dist_eval.victim = 0; after_requests = 1; action = Dist_eval.Stall 0.4 } ]
  in
  Alcotest.(check bool) "timeout extended at least once" true (st.Dist_eval.retries >= 1);
  Alcotest.(check int) "slow worker not declared lost" 0 st.Dist_eval.workers_lost

let test_fault_all_workers_lost () =
  let sk, ck = Lazy.force keys in
  let net = Gen_circuit.wide ~width:2 ~depth:1 in
  let rng = Rng.create ~seed:43 () in
  let cts = Array.map (Gates.encrypt_bit rng sk) (random_bits rng 3) in
  let cfg =
    Dist_eval.config ~faults:[ { Dist_eval.victim = 0; after_requests = 1; action = Dist_eval.Crash } ] 1
  in
  Alcotest.(check bool) "single worker crash raises Failure" true
    (try ignore (Runs.dist cfg ck net cts); false with Failure _ -> true)

(* ------------------------------------------------------------------ *)
(* The NTT across the process boundary                                 *)
(* ------------------------------------------------------------------ *)

module Params = Pytfhe_tfhe.Params
module Transform = Pytfhe_fft.Transform
module Wire = Pytfhe_util.Wire

let ntt_keys =
  lazy
    (Gates.key_gen (Rng.create ~seed:909 ())
       (Params.with_transform Pytfhe_tfhe.Params.test Transform.Ntt))

(* End-to-end under the NTT backend: workers read the shipped keyset
   under its own parameters' transform, and the distributed run stays
   bit-exact with the sequential executor. *)
let test_dist_ntt_end_to_end () =
  let sk, ck = Lazy.force ntt_keys in
  let net = Gen_circuit.wide ~width:4 ~depth:2 in
  let rng = Rng.create ~seed:77 () in
  let ins = random_bits rng 5 in
  let cts = Array.map (Gates.encrypt_bit rng sk) ins in
  let seq_out = reference ck net cts in
  let outs, st = Runs.dist (Dist_eval.config 2) ck net cts in
  Alcotest.(check bool) "ntt dist bit-exact with sequential" true (outs = seq_out);
  Alcotest.(check int) "no workers lost" 0 st.Dist_eval.workers_lost

(* ------------------------------------------------------------------ *)
(* The DJOB request decoder                                            *)
(* ------------------------------------------------------------------ *)

module Lwe_array = Pytfhe_tfhe.Lwe_array

(* DJOB cell headers written by hand: tag 0 and a sign cell's mu and
   post, tag 1 and a LUT cell's arity and tables, or any other tag. *)
let sign_header mu post buf =
  Wire.write_u8 buf 0;
  Wire.write_u32 buf mu;
  Wire.write_u32 buf post

let lut_header arity tables buf =
  Wire.write_u8 buf 1;
  Wire.write_u8 buf arity;
  Wire.write_array buf Wire.write_u8 (Array.of_list tables)

let gate_header =
  match Gates.gate_cell with
  | Gates.Cell_sign { mu; post } -> sign_header mu post
  | Gates.Cell_lut _ -> assert false

(* Decode a payload built by hand; every malformed one must raise
   Wire.Corrupt, with no worker process involved. *)
let test_request_decoder () =
  let sk, ck = Lazy.force keys in
  let n = ck.Gates.cloud_params.Params.lwe.Params.n in
  let rng = Rng.create ~seed:44 () in
  let c () = Gates.encrypt_bit rng sk (Rng.bool rng) in
  let wave =
    {
      Wave.cells =
        [| Gates.gate_cell; Gates.Cell_lut { arity = 2; tables = [| 0x6; 0x8 |] };
           Gates.sign_cell ~table:0b10 |];
      rows = Lwe_array.of_samples ~n [| c (); c (); c () |];
    }
  in
  let valid = Bytes.to_string (Dist_eval.encode_request ~req_id:5 ~cap:8 wave) in
  let req_id, cap, back = Dist_eval.decode_request ~n valid in
  Alcotest.(check bool) "valid request round-trips" true
    (req_id = 5 && cap = 8 && back.Wave.cells = wave.Wave.cells
    && Lwe_array.to_samples back.Wave.rows = Lwe_array.to_samples wave.Wave.rows);
  (* A payload from parts: cell headers and [rows] rows of dimension
     [dim]. *)
  let payload ?(cap = 8) ?(dim = n) ~rows headers =
    let buf = Buffer.create 256 in
    Wire.write_magic buf "DJOB";
    Wire.write_i64 buf 1;
    Wire.write_i64 buf cap;
    Wire.write_array buf (fun buf header -> header buf) (Array.of_list headers);
    Lwe_array.write buf (Lwe_array.create ~n:dim rows);
    Buffer.contents buf
  in
  Alcotest.(check bool) "hand-built payload decodes" true
    (match Dist_eval.decode_request ~n (payload ~rows:2 [ gate_header; lut_header 2 [ 0x6 ] ]) with
    | _, _, { Wave.cells = [| cell; Gates.Cell_lut { arity = 2; _ } |]; _ } ->
      cell = Gates.gate_cell
    | _ -> false);
  List.iter
    (fun (label, bytes) ->
      Alcotest.(check bool) label true
        (match Dist_eval.decode_request ~n bytes with
        | _ -> false
        | exception Wire.Corrupt _ -> true))
    [
      ("truncated payload", String.sub valid 0 (String.length valid - 7));
      ("header cut", String.sub valid 0 14);
      ("unknown cell tag", payload ~rows:1 [ (fun buf -> Wire.write_u8 buf 2) ]);
      ("sign cell the cursor never emits", payload ~rows:1 [ sign_header 12345 0 ]);
      ("arity 0", payload ~rows:1 [ lut_header 0 [ 1 ] ]);
      ("arity 1", payload ~rows:1 [ lut_header 1 [ 0b10 ] ]);
      ("arity 4", payload ~rows:1 [ lut_header 4 [ 1 ] ]);
      ("table too wide for arity 2", payload ~rows:1 [ lut_header 2 [ 0x10 ] ]);
      ("group without tables", payload ~rows:1 [ lut_header 2 [] ]);
      ("too few rows", payload ~rows:1 [ gate_header; lut_header 2 [ 0x6 ] ]);
      ("too many rows", payload ~rows:3 [ gate_header; lut_header 2 [ 0x6 ] ]);
      ("row dimension", payload ~dim:(n + 1) ~rows:1 [ gate_header ]);
      ("launch capacity 0", payload ~cap:0 ~rows:1 [ gate_header ]);
    ]

(* A shard ships one combined row per job: 8 XOR jobs at [Params.test]
   (a row is 260 bytes) fit in the rows plus a few bytes a cell. *)
let test_request_size () =
  let _, ck = Lazy.force keys in
  let n = ck.Gates.cloud_params.Params.lwe.Params.n in
  let wave = { Wave.cells = Array.make 8 Gates.gate_cell; rows = Lwe_array.create ~n 8 } in
  let bytes = Bytes.length (Dist_eval.encode_request ~req_id:1 ~cap:8 wave) in
  Alcotest.(check bool) (Printf.sprintf "%d bytes" bytes) true (bytes <= 2336)

(* Mutation fuzzing of the two frames a worker and its coordinator read
   from each other.  A valid frame at a tiny dimension (no keys needed)
   takes one mutation — a bit flip, a random byte, a truncation, or an
   8-byte field overwritten with a random 64-bit value — and the decoder
   must either succeed, holding no more rows than the payload carries, or
   raise Wire.Corrupt. *)
let fuzz_n =
  (Params.custom ~name:"fuzz" ~n:8 ~lwe_stdev:(2.0 ** -20.0) ~ring_n:64 ~k:1
     ~tlwe_stdev:(2.0 ** -30.0) ~l:2 ~bg_bit:6 ~ks_t:4 ~ks_base_bit:2 ())
    .Params.lwe.Params.n

let random_rows st ~rows =
  let t = Lwe_array.create ~n:fuzz_n rows in
  for r = 0 to rows - 1 do
    Lwe_array.set t r
      { Pytfhe_tfhe.Lwe.a = Array.init fuzz_n (fun _ -> Random.State.bits st); b = Random.State.bits st }
  done;
  t

let mutate st frame =
  let b = Bytes.of_string frame in
  let len = Bytes.length b in
  match Random.State.int st 4 with
  | 0 ->
    let i = Random.State.int st len in
    Bytes.set_uint8 b i (Bytes.get_uint8 b i lxor (1 lsl Random.State.int st 8));
    Bytes.to_string b
  | 1 ->
    Bytes.set_uint8 b (Random.State.int st len) (Random.State.int st 256);
    Bytes.to_string b
  | 2 -> Bytes.sub_string b 0 (Random.State.int st len)
  | _ ->
    Bytes.set_int64_le b (Random.State.int st (len - 7)) (Random.State.int64 st Int64.max_int);
    if Random.State.bool st then Bytes.set_uint8 b (Random.State.int st len) 0xFF;
    Bytes.to_string b

let row_bytes = 4 * (fuzz_n + 1)

let test_fuzz_request =
  QCheck.Test.make ~name:"DJOB decoder under mutation: Wire.Corrupt or bounded rows" ~count:300
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let cells =
        [| Gates.gate_cell; Gates.sign_cell ~table:(Random.State.int st 4);
           Gates.Cell_lut { arity = 2; tables = [| 0x6; 0x8 |] };
           Gates.Cell_lut { arity = 3; tables = [| 0x96 |] } |]
      in
      let wave = { Wave.cells; rows = random_rows st ~rows:(Array.length cells) } in
      let frame = mutate st (Bytes.to_string (Dist_eval.encode_request ~req_id:seed ~cap:8 wave)) in
      match Dist_eval.decode_request ~n:fuzz_n frame with
      | _, _, w -> Lwe_array.length w.Wave.rows * row_bytes <= String.length frame
      | exception Wire.Corrupt _ -> true)

let test_fuzz_reply =
  QCheck.Test.make ~name:"DOUT decoder under mutation: Wire.Corrupt or bounded rows" ~count:300
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let rows = 1 + Random.State.int st 6 in
      let buf = Buffer.create 1024 in
      Wire.write_magic buf "DOUT";
      Wire.write_i64 buf seed;
      Wire.write_f64 buf 0.25;
      Lwe_array.write buf (random_rows st ~rows);
      let frame = mutate st (Buffer.contents buf) in
      match Dist_eval.decode_reply ~n:fuzz_n ~rows frame with
      | _, _, outs -> Lwe_array.length outs * row_bytes <= String.length frame
      | exception Wire.Corrupt _ -> true)

(* Must run before anything else: in a spawned worker process this serves
   the gate protocol and never returns. *)
let () = Dist_eval.worker_entry ()

let () =
  Alcotest.run "dist"
    [
      ( "cross-backend",
        [
          QCheck_alcotest.to_alcotest test_cross_backend;
          QCheck_alcotest.to_alcotest test_cross_backend_lut;
          Alcotest.test_case "stats and validation" `Slow test_dist_stats_and_validation;
          Alcotest.test_case "bootstrap counts" `Slow test_bootstrap_counts;
        ] );
      ( "faults",
        [
          Alcotest.test_case "sigkill mid-wave" `Slow test_fault_sigkill_mid_wave;
          Alcotest.test_case "flipped reply frame" `Slow test_fault_flipped_frame;
          Alcotest.test_case "truncated reply frame" `Slow test_fault_truncated_frame;
          Alcotest.test_case "stalled worker retries" `Slow test_fault_stall_retries;
          Alcotest.test_case "all workers lost" `Slow test_fault_all_workers_lost;
        ] );
      ( "wire",
        [
          Alcotest.test_case "DJOB decoder rejects malformed requests" `Quick
            test_request_decoder;
          Alcotest.test_case "a DJOB carries one combined row per job" `Quick test_request_size;
          QCheck_alcotest.to_alcotest test_fuzz_request;
          QCheck_alcotest.to_alcotest test_fuzz_reply;
        ] );
      ( "transform",
        [
          Alcotest.test_case "ntt end to end" `Slow test_dist_ntt_end_to_end;
        ] );
    ]
