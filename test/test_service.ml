(* FHE-as-a-service tests.

   The load-bearing properties: (1) concurrent multi-tenant sessions are
   ciphertext-bit-exact with a per-tenant Server.run of the same program,
   (2) malformed or mismatched handshakes are rejected without killing
   other sessions (payload errors draw an SERR; only envelope corruption
   closes the one offending connection), and (3) evicting a keyset fails
   exactly that tenant's requests, after which the tenant can re-register
   and run again. *)

module Rng = Pytfhe_util.Rng
module Wire = Pytfhe_util.Wire
module Netlist = Pytfhe_circuit.Netlist
module Params = Pytfhe_tfhe.Params
module Transform = Pytfhe_fft.Transform
module Framing = Pytfhe_backend.Framing
module Dist_eval = Pytfhe_backend.Dist_eval
module Executor = Pytfhe_backend.Executor
module Plain_eval = Pytfhe_backend.Plain_eval
module Pipeline = Pytfhe_core.Pipeline
module Server = Pytfhe_core.Server
module Client = Pytfhe_core.Client
module Service = Pytfhe_service.Service
module Service_client = Pytfhe_service.Service_client

(* Key generation dominates these tests; share one pair per tenant. *)
let tenant_a = lazy (Client.keygen ~params:Params.test ~seed:71 ())
let tenant_b = lazy (Client.keygen ~params:Params.test ~seed:72 ())

(* Run [f port] against a live server on an ephemeral port, then shut the
   server down and return [(f's result, final server stats)]. *)
let with_server ?(config = Service.default_config) f =
  let port = Atomic.make 0 in
  let d = Domain.spawn (fun () -> Service.serve ~config ~ready:(Atomic.set port) ()) in
  while Atomic.get port = 0 do
    Domain.cpu_relax ()
  done;
  let p = Atomic.get port in
  let shut () =
    try
      let c = Service_client.connect ~port:p () in
      Service_client.shutdown c;
      Service_client.close c
    with _ -> ()
  in
  match f p with
  | result ->
    shut ();
    (result, Domain.join d)
  | exception e ->
    shut ();
    ignore (Domain.join d);
    raise e

let compiled_wide =
  lazy (Pipeline.compile ~optimize:false ~name:"svc-wide" (Gen_circuit.wide ~width:4 ~depth:3))

let submit_compiled c ~session ~name compiled cts =
  Service_client.submit c ~session ~name ~program:compiled.Pipeline.binary ~inputs:cts

let expect_done = function
  | Service_client.Done { outputs; bootstraps; _ } -> (outputs, bootstraps)
  | Service_client.Failed { code; message } ->
    Alcotest.failf "request failed (%s: %s)" (Service.string_of_error_code code) message

(* ------------------------------------------------------------------ *)
(* Concurrent multi-tenant sessions, bit-exact vs per-tenant Server.run *)
(* ------------------------------------------------------------------ *)

(* A serial chain exposes one ready gate per request at a time: a batch
   fill above 1.0 over the launches of concurrent chains is only reachable
   by packing jobs from different requests into one launch. *)
let compiled_chain =
  lazy (Pipeline.compile ~optimize:false ~name:"svc-chain" (Gen_circuit.chain ~depth:24))

let multi_tenant_on backend =
  let client_a, cloud_a = Lazy.force tenant_a in
  let client_b, cloud_b = Lazy.force tenant_b in
  let compiled = Lazy.force compiled_wide and chain = Lazy.force compiled_chain in
  let name = Executor.placement_name backend in
  let rng = Rng.create ~seed:4242 () in
  let job client compiled =
    let ins = Array.init (Netlist.input_count compiled.Pipeline.netlist) (fun _ -> Rng.bool rng) in
    (compiled, ins, Client.encrypt_bits client ins)
  in
  (* Two tenants interleaved on the wide program, then three concurrent
     chains from tenant A. *)
  let wide =
    Array.init 4 (fun i ->
        if i mod 2 = 0 then (0, job client_a compiled) else (1, job client_b compiled))
  in
  let chains = Array.init 3 (fun _ -> (0, job client_a chain)) in
  let tenants = [| (client_a, cloud_a); (client_b, cloud_b) |] in
  let chain_fill, stats =
    with_server ~config:{ Service.default_config with backend } (fun port ->
        let conns = Array.map (fun _ -> Service_client.connect ~port ()) tenants in
        Fun.protect
          ~finally:(fun () -> Array.iter Service_client.close conns)
          (fun () ->
            let sessions =
              Array.mapi
                (fun t (client, cloud) ->
                  let id = Client.client_id client in
                  Service_client.register conns.(t) ~client_id:id cloud;
                  Service_client.open_session conns.(t) ~client_id:id Params.test)
                tenants
            in
            (* Submit a phase's requests so they are in flight concurrently,
               then await them out of order. *)
            let phase jobs =
              let reqs =
                Array.mapi
                  (fun i (t, (compiled, _, cts)) ->
                    submit_compiled conns.(t) ~session:sessions.(t)
                      ~name:(Printf.sprintf "j%d" i) compiled cts)
                  jobs
              in
              Array.iteri
                (fun i (t, (compiled, ins, cts)) ->
                  let outputs, bootstraps =
                    expect_done (Service_client.await ~timeout:120.0 conns.(t) reqs.(i))
                  in
                  let client, cloud = tenants.(t) in
                  let ref_out, _ = Server.run Server.Cpu cloud compiled cts in
                  Alcotest.(check bool)
                    (Printf.sprintf "%s request %d bit-exact with per-tenant Server.run" name i)
                    true (outputs = ref_out);
                  Alcotest.(check (array bool))
                    (Printf.sprintf "%s request %d decrypts to plain eval" name i)
                    (Array.of_list (List.map snd (Plain_eval.run compiled.Pipeline.netlist ins)))
                    (Client.decrypt_bits client outputs);
                  Alcotest.(check bool) "bootstraps counted" true (bootstraps > 0))
                jobs
            in
            phase wide;
            let before = Service_client.stats conns.(0) in
            phase chains;
            let after = Service_client.stats conns.(0) in
            float_of_int (after.Service.batched_gates - before.Service.batched_gates)
            /. float_of_int (after.Service.batch_launches - before.Service.batch_launches)))
  in
  let n = Array.length wide + Array.length chains in
  Alcotest.(check string) "stats name the placement" name stats.Service.backend;
  Alcotest.(check int) "two keysets registered" 2 stats.Service.keysets_registered;
  Alcotest.(check int) "two sessions opened" 2 stats.Service.sessions_opened;
  Alcotest.(check int) (name ^ ": every request completed") n stats.Service.requests_completed;
  Alcotest.(check int) "no failures" 0 stats.Service.requests_failed;
  Alcotest.(check bool) (name ^ ": batched launches happened") true
    (stats.Service.batch_launches > 0);
  Alcotest.(check bool)
    (Printf.sprintf "%s: cross-request packing on the chains (fill %.2f)" name chain_fill)
    true (chain_fill > 1.0);
  Alcotest.(check int) "per-request latencies sampled" n
    stats.Service.latency.Pytfhe_obs.Quantile.count;
  Alcotest.(check bool) "per-tenant traffic accounted" true
    (Array.length stats.Service.tenants = 2
    && Array.for_all
         (fun t -> t.Service.bytes_in > 0 && t.Service.bytes_out > 0)
         stats.Service.tenants);
  (* Every binding is released by the time serve returns: no worker
     process outlives it. *)
  Alcotest.(check bool) (name ^ ": no child process left") true
    (match Unix.waitpid [ Unix.WNOHANG ] (-1) with
    | _ -> false
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true)

let test_multi_tenant_bit_exact () =
  List.iter multi_tenant_on
    [
      Server.Cpu;
      Server.Multicore { workers = 2 };
      Server.Multiprocess { workers = 2; config = None };
    ]

(* A dist placement whose worker dies on its second request: the launch
   it dies in fails its requests with [Internal], the binding goes, the
   tenant binds afresh on its next admission, and the other tenant never
   notices. *)
let test_placement_failure () =
  let client_a, cloud_a = Lazy.force tenant_a in
  let client_b, cloud_b = Lazy.force tenant_b in
  let chain = Lazy.force compiled_chain in
  let flat =
    Pipeline.compile ~optimize:false ~name:"svc-flat" (Gen_circuit.wide ~width:4 ~depth:1)
  in
  let faults = [ { Dist_eval.victim = 0; after_requests = 2; action = Dist_eval.Crash } ] in
  let backend = Server.Multiprocess { workers = 1; config = Some (Dist_eval.config ~faults 1) } in
  let rng = Rng.create ~seed:4343 () in
  let inputs client compiled =
    let ins = Array.init (Netlist.input_count compiled.Pipeline.netlist) (fun _ -> Rng.bool rng) in
    Client.encrypt_bits client ins
  in
  let (), stats =
    with_server ~config:{ Service.default_config with backend } (fun port ->
        let ca = Service_client.connect ~port () and cb = Service_client.connect ~port () in
        Fun.protect
          ~finally:(fun () ->
            Service_client.close ca;
            Service_client.close cb)
          (fun () ->
            let id_a = Client.client_id client_a and id_b = Client.client_id client_b in
            Service_client.register ca ~client_id:id_a cloud_a;
            Service_client.register cb ~client_id:id_b cloud_b;
            let sa = Service_client.open_session ca ~client_id:id_a Params.test in
            let sb = Service_client.open_session cb ~client_id:id_b Params.test in
            let run c s cloud compiled cts =
              let req = submit_compiled c ~session:s ~name:"r" compiled cts in
              match Service_client.await ~timeout:60.0 c req with
              | Service_client.Done { outputs; _ } ->
                Alcotest.(check bool) "reply bit-exact with Server.run" true
                  (outputs = fst (Server.run Server.Cpu cloud compiled cts));
                true
              | Service_client.Failed { code = Service.Internal; _ } -> false
              | Service_client.Failed { code; message } ->
                Alcotest.failf "wrong error (%s: %s)" (Service.string_of_error_code code) message
            in
            Alcotest.(check bool) "the launch the worker dies in fails with Internal" false
              (run ca sa cloud_a chain (inputs client_a chain));
            Alcotest.(check bool) "the other tenant is unaffected" true
              (run cb sb cloud_b flat (inputs client_b flat));
            Alcotest.(check bool) "the tenant binds afresh" true
              (run ca sa cloud_a flat (inputs client_a flat))))
  in
  Alcotest.(check int) "one request failed" 1 stats.Service.requests_failed;
  Alcotest.(check bool) "no child process left" true
    (match Unix.waitpid [ Unix.WNOHANG ] (-1) with
    | _ -> false
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true)

(* ------------------------------------------------------------------ *)
(* Handshake rejection and failure isolation                           *)
(* ------------------------------------------------------------------ *)

let corrupts f = match f () with _ -> false | exception Wire.Corrupt _ -> true

let test_handshake_rejection () =
  let client_a, cloud_a = Lazy.force tenant_a in
  let compiled = Lazy.force compiled_wide in
  let n_in = Netlist.input_count compiled.Pipeline.netlist in
  let rng = Rng.create ~seed:5151 () in
  let (), stats =
    with_server (fun port ->
        let ca = Service_client.connect ~port () in
        Fun.protect ~finally:(fun () -> Service_client.close ca) @@ fun () ->
        let id_a = Client.client_id client_a in
        Service_client.register ca ~client_id:id_a cloud_a;
        let sa = Service_client.open_session ca ~client_id:id_a Params.test in
        (* Each rejection below is a payload-level error on a throwaway
           connection: the server answers SERR and the error surfaces
           client-side as Wire.Corrupt. *)
        let on_throwaway f =
          let c = Service_client.connect ~port () in
          Fun.protect ~finally:(fun () -> Service_client.close c) (fun () -> f c)
        in
        (* The keyset's own params carry its transform: a session asking for
           the other one draws Mismatch, not Unknown. *)
        Alcotest.(check bool) "session under the other transform's params rejected" true
          (on_throwaway (fun c ->
               let other =
                 Params.with_transform Params.test
                   (match Params.test.Params.transform with
                   | Transform.Fft -> Transform.Ntt
                   | Transform.Ntt -> Transform.Fft)
               in
               match Service_client.open_session c ~client_id:id_a other with
               | _ -> false
               | exception Wire.Corrupt msg ->
                 msg = "parameter set does not match the registered keyset"));
        Alcotest.(check bool) "unknown client id rejected" true
          (on_throwaway (fun c ->
               corrupts (fun () -> Service_client.open_session c ~client_id:"nobody" Params.test)));
        Alcotest.(check bool) "malformed client id rejected" true
          (on_throwaway (fun c ->
               corrupts (fun () -> Service_client.register c ~client_id:"no spaces!" cloud_a)));
        let send_payload c payload =
          let frame = Buffer.create 32 in
          Buffer.add_string frame Framing.frame_magic;
          Buffer.add_int64_le frame (Int64.of_int (Bytes.length payload));
          Buffer.add_bytes frame payload;
          Service_client.send_raw c (Buffer.to_bytes frame)
        in
        (* The keyset is SREG's last field: a byte after it is refused. *)
        Alcotest.(check bool) "trailing bytes after the SREG keyset rejected" true
          (on_throwaway (fun c ->
               let buf = Buffer.create 65536 in
               Wire.write_magic buf "SREG";
               Wire.write_string buf "trailing";
               Pytfhe_tfhe.Gates.write_cloud_keyset buf cloud_a;
               Buffer.add_char buf '\000';
               send_payload c (Buffer.to_bytes buf);
               match Service_client.stats c with
               | _ -> false
               | exception Wire.Corrupt msg -> msg = "Service: trailing bytes after the SREG keyset"));
        (* Unknown message magic inside a valid envelope: SERR, and the
           connection survives to serve a well-formed stats call. *)
        on_throwaway (fun c ->
            let buf = Buffer.create 16 in
            Wire.write_magic buf "ZZZZ";
            send_payload c (Buffer.to_bytes buf);
            Alcotest.(check bool) "unknown magic draws SERR" true
              (corrupts (fun () -> Service_client.stats c));
            Alcotest.(check bool) "connection survives the payload error" true
              (Service.(ignore (Service_client.stats c).backend);
               true));
        (* Envelope corruption: the server closes that connection only. *)
        let cx = Service_client.connect ~port () in
        Service_client.send_raw cx (Bytes.of_string "XXXXXXXXXXXXXXXXXXXX");
        Alcotest.(check bool) "corrupt envelope closes the connection" true
          (match Service_client.stats cx with
          | _ -> false
          | exception Framing.Frame_closed -> true
          | exception Unix.Unix_error _ -> true);
        Service_client.close cx;
        (* The established tenant session kept working through all of it. *)
        let ins = Array.init n_in (fun _ -> Rng.bool rng) in
        let cts = Client.encrypt_bits client_a ins in
        let req = submit_compiled ca ~session:sa ~name:"survivor" compiled cts in
        let outputs, _ = expect_done (Service_client.await ~timeout:60.0 ca req) in
        let ref_out, _ = Server.run Server.Cpu cloud_a compiled cts in
        Alcotest.(check bool) "survivor request bit-exact" true (outputs = ref_out))
  in
  Alcotest.(check int) "one request completed" 1 stats.Service.requests_completed;
  Alcotest.(check int) "rejections admitted no requests" 1 stats.Service.requests_admitted

(* ------------------------------------------------------------------ *)
(* Keyset eviction fails only that tenant                              *)
(* ------------------------------------------------------------------ *)

let test_evict_fails_only_that_tenant () =
  let client_a, cloud_a = Lazy.force tenant_a in
  let client_b, cloud_b = Lazy.force tenant_b in
  (* Tenant A's program is a long serial chain: one ready gate at a time,
     hundreds of scheduler launches, so the eviction lands mid-flight. *)
  let chain = Pipeline.compile ~optimize:false ~name:"svc-chain" (Gen_circuit.chain ~depth:600) in
  let wide = Lazy.force compiled_wide in
  let rng = Rng.create ~seed:6161 () in
  let (), stats =
    with_server (fun port ->
        let ca = Service_client.connect ~port () in
        let cb = Service_client.connect ~port () in
        Fun.protect
          ~finally:(fun () ->
            Service_client.close ca;
            Service_client.close cb)
          (fun () ->
            let id_a = Client.client_id client_a and id_b = Client.client_id client_b in
            Service_client.register ca ~client_id:id_a cloud_a;
            Service_client.register cb ~client_id:id_b cloud_b;
            let sa = Service_client.open_session ca ~client_id:id_a Params.test in
            let sb = Service_client.open_session cb ~client_id:id_b Params.test in
            let ins_a =
              Array.init (Netlist.input_count chain.Pipeline.netlist) (fun _ -> Rng.bool rng)
            in
            let cts_a = Client.encrypt_bits client_a ins_a in
            let ins_b =
              Array.init (Netlist.input_count wide.Pipeline.netlist) (fun _ -> Rng.bool rng)
            in
            let cts_b = Client.encrypt_bits client_b ins_b in
            let req_a = submit_compiled ca ~session:sa ~name:"long-chain" chain cts_a in
            let req_b = submit_compiled cb ~session:sb ~name:"bystander" wide cts_b in
            Alcotest.(check bool) "evict acknowledges a registered keyset" true
              (Service_client.evict ca ~client_id:id_a);
            (match Service_client.await ~timeout:60.0 ca req_a with
            | Service_client.Failed { code = Service.Evicted; _ } -> ()
            | Service_client.Failed { code; message } ->
              Alcotest.failf "wrong failure (%s: %s)" (Service.string_of_error_code code) message
            | Service_client.Done _ -> Alcotest.fail "evicted request completed");
            let outputs_b, _ = expect_done (Service_client.await ~timeout:60.0 cb req_b) in
            Alcotest.(check (array bool)) "bystander tenant unaffected"
              (Array.of_list (List.map snd (Plain_eval.run wide.Pipeline.netlist ins_b)))
              (Client.decrypt_bits client_b outputs_b);
            (* The evicted tenant's session is dead, but re-registering
               brings the tenant back. *)
            Alcotest.(check bool) "stale session rejected" true
              (match submit_compiled ca ~session:sa ~name:"stale" wide cts_b with
              | req -> (
                match Service_client.await ~timeout:60.0 ca req with
                | Service_client.Failed { code = Service.Unknown; _ } -> true
                | _ -> false)
              | exception Wire.Corrupt _ -> true);
            Service_client.register ca ~client_id:id_a cloud_a;
            let sa' = Service_client.open_session ca ~client_id:id_a Params.test in
            let ins' =
              Array.init (Netlist.input_count wide.Pipeline.netlist) (fun _ -> Rng.bool rng)
            in
            let cts' = Client.encrypt_bits client_a ins' in
            let req' = submit_compiled ca ~session:sa' ~name:"reborn" wide cts' in
            let outputs', _ = expect_done (Service_client.await ~timeout:60.0 ca req') in
            Alcotest.(check (array bool)) "re-registered tenant runs again"
              (Array.of_list (List.map snd (Plain_eval.run wide.Pipeline.netlist ins')))
              (Client.decrypt_bits client_a outputs')))
  in
  Alcotest.(check int) "one eviction recorded" 1 stats.Service.keysets_evicted;
  Alcotest.(check bool) "evicted request counted as failed" true
    (stats.Service.requests_failed >= 1)

(* ------------------------------------------------------------------ *)
(* Program-size admission cap                                          *)
(* ------------------------------------------------------------------ *)

let test_program_size_cap () =
  let client_a, cloud_a = Lazy.force tenant_a in
  let compiled = Lazy.force compiled_wide in
  let n_in = Netlist.input_count compiled.Pipeline.netlist in
  let rng = Rng.create ~seed:99 () in
  let ins = Array.init n_in (fun _ -> Rng.bool rng) in
  let cts = Client.encrypt_bits client_a ins in
  (* One byte under the program's size: the submission must be rejected
     before the server decodes a single instruction. *)
  let cap = Bytes.length compiled.Pipeline.binary - 1 in
  let (), stats =
    with_server
      ~config:{ Service.default_config with Service.max_program_bytes = cap }
      (fun port ->
        let c = Service_client.connect ~port () in
        Fun.protect
          ~finally:(fun () -> Service_client.close c)
          (fun () ->
            let id = Client.client_id client_a in
            Service_client.register c ~client_id:id cloud_a;
            let s = Service_client.open_session c ~client_id:id Params.test in
            let req = submit_compiled c ~session:s ~name:"oversized" compiled cts in
            (match Service_client.await ~timeout:60.0 c req with
            | Service_client.Failed { code = Service.Corrupt; message } ->
              Alcotest.(check bool) "error names the admission cap" true
                (try
                   ignore (Str.search_forward (Str.regexp_string "admission cap") message 0);
                   true
                 with Not_found -> false)
            | Service_client.Failed { code; message } ->
              Alcotest.failf "wrong error (%s: %s)" (Service.string_of_error_code code) message
            | Service_client.Done _ -> Alcotest.fail "oversized program accepted")))
  in
  Alcotest.(check int) "nothing executed" 0 stats.Service.requests_completed

(* Malformed programs fail their own request with [Corrupt] — at
   admission or during execution — and nothing else: a well-formed request
   on the same session afterwards is bit-exact with Server.run. *)
let test_program_checks () =
  let client_a, cloud_a = Lazy.force tenant_a in
  let compiled = Lazy.force compiled_wide in
  let binary = compiled.Pipeline.binary in
  let n_in = Netlist.input_count compiled.Pipeline.netlist in
  let rng = Rng.create ~seed:98 () in
  let cts = Client.encrypt_bits client_a (Array.init n_in (fun _ -> Rng.bool rng)) in
  let all_ones = 0x3FFFFFFFFFFFFFFF in
  (* A header declaring one gate, two inputs, [inst] at index 3 and its
     output. *)
  let program inst =
    Gen_circuit.craft
      [ (0, 1, 0x0); (all_ones, 1, 0xF); (all_ones, 2, 0xF); inst; (all_ones, 3, 0x3) ]
  in
  let bad =
    [
      ("length not a multiple of 16", Bytes.cat binary (Bytes.make 7 '\000'), cts);
      ( "nonzero reserved LUT bits",
        program (1, 1 lor (0b10 lsl 2) lor (1 lsl 10), 0xC),
        Array.sub cts 0 2 );
      ("gate over an unassigned index", program (1, 5, 6), Array.sub cts 0 2);
      ( "multi-input LUT over a classic operand",
        program (1, 2 lor (0x6 lsl 2) lor (2 lsl 10), 0xC),
        Array.sub cts 0 2 );
      ("NOT over an unassigned second operand", program (1, 99, 7), Array.sub cts 0 2);
      ( "duplicate header",
        Gen_circuit.craft
          [ (0, 1, 0x0); (all_ones, 1, 0xF); (all_ones, 2, 0xF); (0, 1, 0x0); (1, 2, 6);
            (all_ones, 3, 0x3) ],
        Array.sub cts 0 2 );
      ("n-1 inputs", binary, Array.sub cts 1 (n_in - 1));
      ("n+1 inputs", binary, Array.append cts [| cts.(0) |]);
    ]
  in
  let (), stats =
    with_server (fun port ->
        let c = Service_client.connect ~port () in
        Fun.protect
          ~finally:(fun () -> Service_client.close c)
          (fun () ->
            let id = Client.client_id client_a in
            Service_client.register c ~client_id:id cloud_a;
            let s = Service_client.open_session c ~client_id:id Params.test in
            let reqs =
              List.map
                (fun (label, program, inputs) ->
                  (label, Service_client.submit c ~session:s ~name:label ~program ~inputs))
                bad
            in
            let good = submit_compiled c ~session:s ~name:"good" compiled cts in
            List.iter
              (fun (label, req) ->
                match Service_client.await ~timeout:60.0 c req with
                | Service_client.Failed { code = Service.Corrupt; _ } -> ()
                | Service_client.Failed { code; message } ->
                  Alcotest.failf "%s: wrong error (%s: %s)" label
                    (Service.string_of_error_code code) message
                | Service_client.Done _ -> Alcotest.failf "%s: accepted" label)
              reqs;
            let outputs, _ = expect_done (Service_client.await ~timeout:60.0 c good) in
            let ref_out, _ = Server.run Server.Cpu cloud_a compiled cts in
            Alcotest.(check bool) "well-formed request bit-exact after the rejects" true
              (outputs = ref_out)))
  in
  Alcotest.(check int) "only the well-formed request completed" 1 stats.Service.requests_completed;
  Alcotest.(check int) "every malformed program failed" (List.length bad)
    stats.Service.requests_failed

(* A frame header alone must not make the service allocate what it
   declares: memory follows the bytes a peer actually sent. *)
let test_declared_frame_not_allocated () =
  let vm_size () =
    match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
    | status ->
      Scanf.sscanf
        (List.find (String.starts_with ~prefix:"VmSize:") (String.split_on_char '\n' status))
        "VmSize: %d kB" (fun kb -> Some (kb * 1024))
    | exception Sys_error _ -> None
  in
  let (), _ =
    with_server (fun port ->
        let raw = Service_client.connect ~port () in
        let c = Service_client.connect ~port () in
        Fun.protect
          ~finally:(fun () ->
            Service_client.close raw;
            Service_client.close c)
          (fun () ->
            let before = vm_size () in
            let header = Buffer.create 12 in
            Buffer.add_string header Framing.frame_magic;
            Buffer.add_int64_le header (Int64.of_int (256 lsl 20));
            Service_client.send_raw raw (Buffer.to_bytes header);
            (* Two round trips on another connection: the loop has read
               the header by the time they are answered. *)
            for _ = 1 to 2 do
              Alcotest.(check string) "another connection is still served" "cpu"
                (Service_client.stats c).Service.backend
            done;
            match (before, vm_size ()) with
            | Some before, Some after ->
              Alcotest.(check bool)
                (Printf.sprintf "VmSize grew by %d MiB, under 64" ((after - before) lsr 20))
                true
                (after - before < 64 lsl 20)
            | _ -> ()))
  in
  ()

(* A header declaring an empty payload is a whole frame: the service
   answers it (with an SERR, as an empty payload names no message) without
   waiting for another byte. *)
let test_empty_frame_answered () =
  let (), _ =
    with_server (fun port ->
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Fun.protect
          ~finally:(fun () -> Unix.close fd)
          (fun () ->
            Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
            let header = Buffer.create 12 in
            Buffer.add_string header Framing.frame_magic;
            Buffer.add_int64_le header 0L;
            Framing.write_all fd (Buffer.to_bytes header) 0 12;
            match Framing.read_frame ~deadline:(Unix.gettimeofday () +. 5.0) fd with
            | reply -> Alcotest.(check string) "SERR reply" "SERR" (String.sub reply 0 4)
            | exception Framing.Frame_timeout -> Alcotest.fail "no reply within 5 s"))
  in
  ()

(* ------------------------------------------------------------------ *)
(* Stats wire codec                                                    *)
(* ------------------------------------------------------------------ *)

let test_stats_roundtrip () =
  let s =
    {
      Service.backend = "cpu";
      keysets_registered = 3;
      keysets_evicted = 1;
      sessions_opened = 4;
      requests_admitted = 9;
      requests_completed = 7;
      requests_failed = 2;
      batch_launches = 40;
      batched_gates = 90;
      batch_fill = 2.25;
      lut_rotations = 5;
      queue_depth = 1;
      active_requests = 2;
      max_queue_depth = 6;
      latency = Pytfhe_obs.Quantile.summarize [| 0.1; 0.2; 0.3 |];
      tenants = [| { Service.id = "alice"; bytes_in = 100; bytes_out = 50 } |];
    }
  in
  let buf = Buffer.create 256 in
  Service.write_stats buf s;
  let s' = Service.read_stats (Wire.reader_of_string (Buffer.contents buf)) in
  Alcotest.(check bool) "stats survive the wire" true (s = s')

(* Must run before anything else: in a spawned worker process this serves
   the gate protocol and never returns. *)
let () = Dist_eval.worker_entry ()

let () =
  Alcotest.run "service"
    [
      ( "service",
        [
          Alcotest.test_case "multi-tenant bit-exact" `Quick test_multi_tenant_bit_exact;
          Alcotest.test_case "placement failure fails only that launch" `Quick
            test_placement_failure;
          Alcotest.test_case "handshake rejection" `Quick test_handshake_rejection;
          Alcotest.test_case "evict fails only that tenant" `Quick
            test_evict_fails_only_that_tenant;
          Alcotest.test_case "program-size admission cap" `Quick test_program_size_cap;
          Alcotest.test_case "malformed programs fail only their own request" `Quick
            test_program_checks;
          Alcotest.test_case "a declared frame is not allocated" `Quick
            test_declared_frame_not_allocated;
          Alcotest.test_case "an empty frame is answered" `Quick test_empty_frame_answered;
          Alcotest.test_case "stats wire roundtrip" `Quick test_stats_roundtrip;
        ] );
    ]
