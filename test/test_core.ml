module Rng = Pytfhe_util.Rng
module Netlist = Pytfhe_circuit.Netlist
module Gate = Pytfhe_circuit.Gate
module Binary = Pytfhe_circuit.Binary
module Stats = Pytfhe_circuit.Stats
module Executor = Pytfhe_backend.Executor
open Pytfhe_core
open Pytfhe_chiseltorch

(* A small unoptimized circuit with obvious redundancy. *)
let redundant_circuit () =
  let net = Netlist.create ~hash_consing:false ~fold_constants:false () in
  let a = Netlist.input net "a" in
  let b = Netlist.input net "b" in
  let x1 = Netlist.gate net Gate.Xor a b in
  let x2 = Netlist.gate net Gate.Xor a b in
  let _dead = Netlist.gate net Gate.Or a b in
  Netlist.mark_output net "o" (Netlist.gate net Gate.And x1 x2);
  net

let test_pipeline_optimizes () =
  let c = Pipeline.compile ~name:"redundant" (redundant_circuit ()) in
  (* xor shared, and(x,x) folded, dead or removed: one gate remains. *)
  Alcotest.(check int) "one gate after optimization" 1 c.Pipeline.stats.Stats.gates;
  match c.Pipeline.opt_report with
  | Some r ->
    Alcotest.(check int) "report before" 4 r.Pytfhe_synth.Opt.gates_before;
    Alcotest.(check int) "report after" 1 r.Pytfhe_synth.Opt.gates_after
  | None -> Alcotest.fail "expected an optimization report"

let test_pipeline_unoptimized_mode () =
  let c = Pipeline.compile ~optimize:false ~name:"raw" (redundant_circuit ()) in
  Alcotest.(check int) "gates kept" 4 c.Pipeline.stats.Stats.gates;
  Alcotest.(check bool) "no report" true (c.Pipeline.opt_report = None)

let test_pipeline_binary_consistent () =
  let c = Pipeline.compile ~name:"ha" (redundant_circuit ()) in
  let parsed = Binary.parse c.Pipeline.binary in
  List.iter
    (fun (a, b) ->
      Alcotest.(check (list bool)) "binary function"
        (List.map snd (Netlist.eval_outputs c.Pipeline.netlist [| a; b |]))
        (List.map snd (Netlist.eval_outputs parsed [| a; b |])))
    [ (false, false); (false, true); (true, false); (true, true) ]

let test_pipeline_compile_model () =
  let model =
    [ Nn.Linear { in_features = 4; out_features = 2; weights = Array.init 8 (fun i -> float_of_int i /. 8.0); bias = None } ]
  in
  let c =
    Pipeline.compile_model ~name:"tiny-linear" ~dtype:(Dtype.Fixed { width = 8; frac = 4 })
      ~input_shape:[| 4 |] model
  in
  Alcotest.(check int) "inputs 4x8 bits" 32 c.Pipeline.stats.Stats.inputs;
  Alcotest.(check int) "outputs 2x8 bits" 16 c.Pipeline.stats.Stats.outputs;
  Alcotest.(check bool) "nonempty" true (c.Pipeline.stats.Stats.gates > 0)

let test_pipeline_compile_workload () =
  match Pytfhe_vipbench.Suite.find "hamming_distance" with
  | None -> Alcotest.fail "workload missing"
  | Some w ->
    let c = Pipeline.compile_workload w in
    Alcotest.(check string) "name" "hamming_distance" c.Pipeline.prog_name;
    Alcotest.(check bool) "schedule computed" true (c.Pipeline.schedule.Pytfhe_circuit.Levelize.depth > 0)


let test_pipeline_failure_probability () =
  let c = Pipeline.compile ~name:"ha" (redundant_circuit ()) in
  let p_default = Pipeline.failure_probability c Pytfhe_tfhe.Params.default_128 in
  Alcotest.(check bool) "tiny for default params" true (p_default < 1e-15 && p_default >= 0.0);
  (match Pipeline.check_correctness c Pytfhe_tfhe.Params.default_128 with
  | `Ok _ -> ()
  | `Risky p -> Alcotest.failf "default params flagged risky: %g" p);
  (* a deliberately broken parameter set must be flagged, and more gates
     must mean more failure *)
  let broken =
    { Pytfhe_tfhe.Params.test with
      Pytfhe_tfhe.Params.name = "broken";
      tlwe = { Pytfhe_tfhe.Params.test.Pytfhe_tfhe.Params.tlwe with Pytfhe_tfhe.Params.tlwe_stdev = 0.05 } }
  in
  (match Pipeline.check_correctness c broken with
  | `Risky p -> Alcotest.(check bool) "broken flagged" true (p > 1e-6)
  | `Ok p -> Alcotest.failf "broken params accepted: %g" p);
  let big = Pipeline.compile_workload (Option.get (Pytfhe_vipbench.Suite.find "nr_solver")) in
  Alcotest.(check bool) "monotone in gate count" true
    (Pipeline.failure_probability big broken >= Pipeline.failure_probability c broken)

(* ------------------------------------------------------------------ *)
(* Client / server (test parameters)                                   *)
(* ------------------------------------------------------------------ *)

let client_keys = lazy (Client.keygen ~params:Pytfhe_tfhe.Params.test ~seed:404 ())

let test_client_bit_roundtrip () =
  let client, _cloud = Lazy.force client_keys in
  List.iter
    (fun b -> Alcotest.(check bool) "bit roundtrip" b (Client.decrypt_bit client (Client.encrypt_bit client b)))
    [ true; false; true ]

let test_client_value_roundtrip () =
  let client, _cloud = Lazy.force client_keys in
  List.iter
    (fun (dtype, v) ->
      let cts = Client.encrypt_value client dtype v in
      Alcotest.(check (float 1e-9)) "value roundtrip" v (Client.decrypt_value client dtype cts))
    [
      (Dtype.UInt 8, 200.0);
      (Dtype.SInt 8, -77.0);
      (Dtype.Fixed { width = 8; frac = 4 }, 3.25);
      (Dtype.Float { e = 5; m = 6 }, -1.5);
    ]

let test_cloud_key_size_reported () =
  let client, _ = Lazy.force client_keys in
  (* Test parameters: just assert it is a sane positive number of bytes. *)
  Alcotest.(check bool) "positive key size" true (Client.cloud_key_bytes client > 1024)

(* The reported size is the wire's: the keyset file carries the key
   payloads plus a few headers (magics, block lengths, parameters). *)
let test_cloud_key_bytes_equal_the_wire () =
  let tiny =
    Pytfhe_tfhe.Params.custom ~name:"tiny" ~n:4 ~lwe_stdev:(2.0 ** -20.0) ~ring_n:64 ~k:1
      ~tlwe_stdev:(2.0 ** -30.0) ~l:2 ~bg_bit:6 ~ks_t:2 ~ks_base_bit:2 ()
  in
  List.iter
    (fun (client, cloud) ->
      let buf = Buffer.create (1 lsl 20) in
      Pytfhe_tfhe.Gates.write_cloud_keyset buf cloud;
      let written = Buffer.length buf and counted = Client.cloud_key_bytes client in
      Alcotest.(check bool)
        (Printf.sprintf "%d bytes written, %d counted" written counted)
        true
        (written >= counted && written <= counted + 256))
    [ Lazy.force client_keys; Client.keygen ~params:tiny ~seed:405 () ]

let test_end_to_end_encrypted_add () =
  (* Compile a 4-bit adder with ChiselTorch-level tooling, encrypt two
     values, evaluate on the server, decrypt: the full Fig. 1 flow. *)
  let client, cloud = Lazy.force client_keys in
  let net = Netlist.create () in
  let a = Pytfhe_hdl.Bus.input net "a" 4 in
  let b = Pytfhe_hdl.Bus.input net "b" 4 in
  Pytfhe_hdl.Bus.output net "s" (Pytfhe_hdl.Arith.add net a b);
  let compiled = Pipeline.compile ~name:"add4" net in
  let encode v = Array.init 4 (fun i -> (v asr i) land 1 = 1) in
  List.iter
    (fun (x, y) ->
      let cts = Client.encrypt_bits client (Array.append (encode x) (encode y)) in
      let outs, stats = Server.run Server.Cpu cloud compiled cts in
      let bits = Client.decrypt_bits client outs in
      let v = ref 0 in
      Array.iteri (fun i bit -> if bit then v := !v lor (1 lsl i)) bits;
      Alcotest.(check int) (Printf.sprintf "%d+%d" x y) ((x + y) land 0xF) !v;
      Alcotest.(check bool) "did real bootstrapping" true (stats.Executor.bootstraps_executed > 0);
      Alcotest.(check string) "unified stats name the backend" "cpu" stats.Executor.backend)
    [ (3, 4); (9, 9); (15, 1) ]


let test_evaluate_distributed_matches_sequential () =
  let client, cloud = Lazy.force client_keys in
  let net = Netlist.create () in
  let a = Pytfhe_hdl.Bus.input net "a" 3 in
  let b = Pytfhe_hdl.Bus.input net "b" 3 in
  Pytfhe_hdl.Bus.output net "s" (Pytfhe_hdl.Arith.add net a b);
  let compiled = Pipeline.compile ~name:"add3" net in
  let cts = Client.encrypt_bits client [| true; false; true; false; true; false |] in
  let seq_out, _ = Server.run Server.Cpu cloud compiled cts in
  let outs, stats =
    Server.run (Server.Multiprocess { workers = 2; config = None }) cloud compiled cts
  in
  Alcotest.(check bool) "bit-exact with sequential server path" true (outs = seq_out);
  Alcotest.(check int) "two worker processes" 2 stats.Executor.workers;
  (match stats.Executor.detail with
  | Executor.Multiprocess_stats d ->
    Alcotest.(check int) "detail carries the dist stats" 2 d.Pytfhe_backend.Dist_eval.workers_started
  | _ -> Alcotest.fail "multiprocess run returned non-multiprocess detail");
  Alcotest.(check (array bool)) "decrypts to 5+2=7 (LSB first)" [| true; true; true |]
    (Client.decrypt_bits client outs)

let test_protocol_files () =
  (* The full CLI protocol through the library API: persist keys, encrypt
     to a file, evaluate from the files only, decrypt. *)
  let dir = Filename.temp_file "pytfhe" ".d" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let secret_path = Filename.concat dir "secret.key" in
  let cloud_path = Filename.concat dir "cloud.key" in
  let ct_path = Filename.concat dir "in.ct" in
  let out_path = Filename.concat dir "out.ct" in
  let client, cloud = Lazy.force client_keys in
  Client.save client secret_path;
  Server.save_cloud_keyset cloud cloud_path;
  let net = Netlist.create () in
  let a = Netlist.input net "a" in
  let b = Netlist.input net "b" in
  Netlist.mark_output net "o" (Netlist.gate net Gate.Xor a b);
  let compiled = Pipeline.compile ~name:"xor1" net in
  let client' = Client.load secret_path in
  let cloud' = Server.load_cloud_keyset cloud_path in
  Ciphertext_file.write ct_path (Client.encrypt_bits client' [| true; false |]);
  let outs, _ = Server.run Server.Cpu cloud' compiled (Ciphertext_file.read ct_path) in
  Ciphertext_file.write out_path outs;
  let bits = Client.decrypt_bits client (Ciphertext_file.read out_path) in
  Alcotest.(check (array bool)) "xor through files" [| true |] bits;
  List.iter (fun f -> Sys.remove (Filename.concat dir f)) [ "secret.key"; "cloud.key"; "in.ct"; "out.ct" ];
  Sys.rmdir dir

(* Two clients loaded from one secret file must not share a mask stream:
   the same bits encrypt under different masks, both decrypt, and the
   reported cloud key size is the key-generating client's. *)
let test_loaded_clients_draw_fresh_masks () =
  let client, _ = Lazy.force client_keys in
  let path = Filename.temp_file "pytfhe" ".key" in
  Client.save client path;
  let bits = [| false; true; true; false |] in
  let c1 = Client.load path and c2 = Client.load path in
  Sys.remove path;
  let e1 = Client.encrypt_bits c1 bits and e2 = Client.encrypt_bits c2 bits in
  Array.iteri
    (fun i (x : Pytfhe_tfhe.Lwe.sample) ->
      Alcotest.(check bool)
        (Printf.sprintf "bit %d masks differ" i)
        true
        (x.Pytfhe_tfhe.Lwe.a <> e2.(i).Pytfhe_tfhe.Lwe.a))
    e1;
  Alcotest.(check (array bool)) "first load decrypts" bits (Client.decrypt_bits client e1);
  Alcotest.(check (array bool)) "second load decrypts" bits (Client.decrypt_bits client e2);
  List.iter
    (fun c ->
      Alcotest.(check int) "cloud key bytes" (Client.cloud_key_bytes client)
        (Client.cloud_key_bytes c))
    [ c1; c2 ]

let test_server_estimates_ordering () =
  (* A wide program: GPU > distributed > single core. *)
  let net = Netlist.create ~hash_consing:false ~fold_constants:false () in
  let ins = Array.init 65 (fun i -> Netlist.input net (Printf.sprintf "i%d" i)) in
  let layer = ref (Array.sub ins 0 64) in
  for _ = 1 to 50 do
    layer := Array.mapi (fun i x -> Netlist.gate net Gate.Xor x ins.((i + 1) mod 65)) !layer
  done;
  Array.iteri (fun i x -> Netlist.mark_output net (Printf.sprintf "o%d" i) x) !layer;
  let c = Pipeline.compile ~optimize:false ~name:"wide" net in
  let single = Server.estimate Server.Single_core c in
  let dist = Server.estimate (Server.Distributed { nodes = 4 }) c in
  let gpu = Server.estimate (Server.Gpu Pytfhe_backend.Cost_model.gpu_a5000) c in
  let cufhe = Server.estimate (Server.Gpu_cufhe Pytfhe_backend.Cost_model.gpu_a5000) c in
  Alcotest.(check bool) "single slowest" true (single > dist);
  Alcotest.(check bool) "gpu fastest" true (gpu < dist);
  Alcotest.(check bool) "cufhe ~ single core scale" true (cufhe > gpu);
  Alcotest.(check bool) "speedup helper consistent" true
    (Float.abs (Server.speedup_over_single_core (Server.Distributed { nodes = 4 }) c -. (single /. dist)) < 1e-9)

let test_backend_names () =
  Alcotest.(check string) "single" "single-core CPU" (Server.sim_platform_name Server.Single_core);
  Alcotest.(check string) "dist" "distributed CPU (4 nodes)"
    (Server.sim_platform_name (Server.Distributed { nodes = 4 }));
  Alcotest.(check bool) "gpu name mentions model" true
    (String.length (Server.sim_platform_name (Server.Gpu Pytfhe_backend.Cost_model.gpu_4090)) > 4);
  (* executor names round-trip through the CLI parser *)
  Alcotest.(check string) "exec cpu" "cpu" (Executor.placement_name Server.Cpu);
  Alcotest.(check string) "exec multicore" "par:2"
    (Executor.placement_name (Server.Multicore { workers = 2 }));
  Alcotest.(check string) "exec multiprocess" "dist:3"
    (Executor.placement_name (Server.Multiprocess { workers = 3; config = None }));
  List.iter
    (fun b ->
      match Executor.placement_of_name (Executor.placement_name b) with
      | Ok b' ->
        Alcotest.(check string) "name round-trips" (Executor.placement_name b)
          (Executor.placement_name b')
      | Error e -> Alcotest.fail e)
    [
      Server.Cpu;
      Server.Multicore { workers = 0 };
      Server.Multicore { workers = 4 };
      Server.Multiprocess { workers = 2; config = None };
    ];
  (match Executor.placement_of_name "dist" with
  | Ok (Server.Multiprocess { workers = 2; _ }) -> ()
  | _ -> Alcotest.fail "bare dist should parse to 2 workers");
  (match Executor.placement_of_name "gpu" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown backend name must be rejected")


(* ------------------------------------------------------------------ *)
(* Homomorphic integers (Hint)                                         *)
(* ------------------------------------------------------------------ *)

let hint_w = 4

let hint_enc client v =
  Hint.of_samples (Client.encrypt_value client (Dtype.SInt hint_w) (float_of_int v))

let hint_dec client h =
  int_of_float (Client.decrypt_value client (Dtype.SInt hint_w) (Hint.to_samples h))

let wrap4 v =
  let m = ((v mod 16) + 16) mod 16 in
  if m >= 8 then m - 16 else m

let test_hint_add_sub_mul () =
  let client, cloud = Lazy.force client_keys in
  List.iter
    (fun (a, b) ->
      let ha = hint_enc client a and hb = hint_enc client b in
      Alcotest.(check int) (Printf.sprintf "%d+%d" a b) (wrap4 (a + b))
        (hint_dec client (Hint.add cloud ha hb));
      Alcotest.(check int) (Printf.sprintf "%d-%d" a b) (wrap4 (a - b))
        (hint_dec client (Hint.sub cloud ha hb));
      Alcotest.(check int) (Printf.sprintf "%d*%d" a b) (wrap4 (a * b))
        (hint_dec client (Hint.mul cloud ha hb)))
    [ (3, 4); (-2, 5); (7, -8); (-1, -1) ]

let test_hint_compare_and_select () =
  let client, cloud = Lazy.force client_keys in
  List.iter
    (fun (a, b) ->
      let ha = hint_enc client a and hb = hint_enc client b in
      Alcotest.(check bool) "lt_s" (a < b) (Client.decrypt_bit client (Hint.lt_s cloud ha hb));
      Alcotest.(check bool) "eq" (a = b) (Client.decrypt_bit client (Hint.eq cloud ha hb));
      Alcotest.(check int) "max_s" (max a b) (hint_dec client (Hint.max_s cloud ha hb));
      Alcotest.(check int) "relu" (max a 0) (hint_dec client (Hint.relu cloud ha)))
    [ (3, -4); (-5, -2); (6, 6) ]

let test_hint_constants_and_resize () =
  let client, cloud = Lazy.force client_keys in
  let c = Hint.constant cloud ~width:hint_w (-3) in
  Alcotest.(check int) "constant" (-3) (hint_dec client c);
  let wide = Hint.resize cloud c 6 in
  Alcotest.(check int) "sign extension preserves value" (-3)
    (int_of_float (Client.decrypt_value client (Dtype.SInt 6) (Hint.to_samples wide)));
  Alcotest.(check bool) "gate counter advances" true (Hint.gate_count () > 0)

(* ------------------------------------------------------------------ *)
(* Framework baselines                                                 *)
(* ------------------------------------------------------------------ *)

module Profile = Pytfhe_frameworks.Profile

let tiny_model =
  [
    Nn.Conv2d { in_ch = 1; out_ch = 1; kernel = 3; stride = 1; padding = 0;
                weights = Array.init 9 (fun i -> (float_of_int i -. 4.0) /. 8.0); bias = None };
    Nn.Relu;
    Nn.Flatten;
    Nn.Linear { in_features = 16; out_features = 2;
                weights = Array.init 32 (fun i -> (float_of_int (i mod 7) -. 3.0) /. 8.0); bias = None };
  ]

let test_frameworks_agree_functionally () =
  (* All four lowerings of the same model compute the same function on the
     shared 8-bit core (Transpiler runs wider, so compare its low bits). *)
  let rng = Rng.create ~seed:5150 () in
  let nets = List.map (fun p -> (p, Profile.build_model p tiny_model ~input_shape:[| 1; 6; 6 |])) Profile.all in
  let reference_bits p (net : Netlist.t) patterns =
    let w = p.Profile.data_width in
    let ins =
      Array.concat
        (List.map (fun v -> Array.init w (fun i -> (v asr i) land 1 = 1)) (Array.to_list patterns))
    in
    let outs = Netlist.eval_outputs net ins in
    (* group output bits; keep only the low 8 bits of each element *)
    let bits = Array.of_list (List.map snd outs) in
    let elements = Array.length bits / w in
    Array.init elements (fun e ->
        let v = ref 0 in
        for i = 0 to 7 do
          if bits.((e * w) + i) then v := !v lor (1 lsl i)
        done;
        !v)
  in
  for _ = 1 to 3 do
    (* Small magnitudes: the lowerings agree bit-for-bit on the low 8 bits
       only while intermediate ReLU inputs stay within the 8-bit range (the
       16-bit Transpiler does not wrap where the 8-bit DSLs do). *)
    let patterns = Array.init 36 (fun _ -> Rng.int rng 8) in
    (* sign-extend the 8-bit patterns for the 16-bit Transpiler inputs *)
    let results =
      List.map
        (fun (p, net) ->
          let scaled =
            if p.Profile.data_width = 8 then patterns
            else
              Array.map
                (fun v -> if v >= 128 then v lor (((1 lsl (p.Profile.data_width - 8)) - 1) lsl 8) else v)
                patterns
          in
          (p.Profile.name, reference_bits p net scaled))
        nets
    in
    match results with
    | (_, first) :: rest ->
      List.iter
        (fun (name, r) ->
          Alcotest.(check (array int)) (name ^ " matches the shared function") first r)
        rest
    | [] -> Alcotest.fail "no frameworks"
  done

let test_frameworks_gate_count_ordering () =
  let count p = Netlist.bootstrap_count (Profile.build_model p tiny_model ~input_shape:[| 1; 6; 6 |]) in
  let py = count Profile.pytfhe in
  let cin = count Profile.cingulata in
  let e3 = count Profile.e3 in
  let tr = count Profile.transpiler in
  Alcotest.(check bool) "pytfhe smallest" true (py < cin);
  Alcotest.(check bool) "cingulata < e3" true (cin < e3);
  Alcotest.(check bool) "transpiler much larger" true (tr > 5 * py)

(* Must run before anything else: in a spawned worker process this serves
   the gate protocol and never returns. *)
let () = Pytfhe_backend.Dist_eval.worker_entry ()

let () =
  Alcotest.run "core"
    [
      ( "pipeline",
        [
          Alcotest.test_case "optimizes" `Quick test_pipeline_optimizes;
          Alcotest.test_case "unoptimized mode" `Quick test_pipeline_unoptimized_mode;
          Alcotest.test_case "binary consistent" `Quick test_pipeline_binary_consistent;
          Alcotest.test_case "compile model" `Quick test_pipeline_compile_model;
          Alcotest.test_case "compile workload" `Quick test_pipeline_compile_workload;
          Alcotest.test_case "failure probability" `Quick test_pipeline_failure_probability;
        ] );
      ( "client-server",
        [
          Alcotest.test_case "bit roundtrip" `Slow test_client_bit_roundtrip;
          Alcotest.test_case "typed value roundtrip" `Slow test_client_value_roundtrip;
          Alcotest.test_case "loaded clients draw fresh masks" `Slow
            test_loaded_clients_draw_fresh_masks;
          Alcotest.test_case "cloud key size" `Slow test_cloud_key_size_reported;
          Alcotest.test_case "cloud key bytes equal the wire" `Slow
            test_cloud_key_bytes_equal_the_wire;
          Alcotest.test_case "end-to-end encrypted add" `Slow test_end_to_end_encrypted_add;
          Alcotest.test_case "distributed server path" `Slow
            test_evaluate_distributed_matches_sequential;
          Alcotest.test_case "protocol files" `Slow test_protocol_files;
          Alcotest.test_case "estimate ordering" `Quick test_server_estimates_ordering;
          Alcotest.test_case "backend names" `Quick test_backend_names;
        ] );
      ( "hint",
        [
          Alcotest.test_case "add/sub/mul" `Slow test_hint_add_sub_mul;
          Alcotest.test_case "compare/select" `Slow test_hint_compare_and_select;
          Alcotest.test_case "constants/resize" `Slow test_hint_constants_and_resize;
        ] );
      ( "frameworks",
        [
          Alcotest.test_case "functional agreement" `Quick test_frameworks_agree_functionally;
          Alcotest.test_case "gate-count ordering" `Quick test_frameworks_gate_count_ordering;
        ] );
    ]
