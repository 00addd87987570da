(* service.mixed: one FHE service (default config: CPU backend, batch-8 SoA
   packing) in its own domain, driven in a closed loop by two tenants with
   one connection and four requests in flight each.  Tenant A submits serial
   8-deep XOR chains, which can share a launch only across requests; tenant
   B submits an 8-wide, 3-deep XOR lattice, which fills a launch by itself.
   Every reply is decrypted and checked against the closed form. *)

open Pytfhe_tfhe
module Netlist = Pytfhe_circuit.Netlist
module Gate = Pytfhe_circuit.Gate
module Binary = Pytfhe_circuit.Binary
module Stats = Pytfhe_circuit.Stats
module Pipeline = Pytfhe_core.Pipeline
module Client = Pytfhe_core.Client
module Service = Pytfhe_service.Service
module Service_client = Pytfhe_service.Service_client
module Rng = Pytfhe_util.Rng
module Trace = Pytfhe_obs.Trace
open Common

let in_flight = 4

(* x0 xor x1 xor ... xor x8 as a serial chain: one ready gate per wave. *)
let chain_net () =
  let net = Netlist.create () in
  let xs = Array.init 9 (fun i -> Netlist.input net (Printf.sprintf "x%d" i)) in
  let o = ref xs.(0) in
  for i = 1 to 8 do
    o := Netlist.gate net Gate.Xor !o xs.(i)
  done;
  Netlist.mark_output net "o" !o;
  net

(* Three rounds of y_i <- y_i xor y_(i+1 mod 8): eight ready gates a wave. *)
let lattice_net () =
  let net = Netlist.create () in
  let layer = ref (Array.init 8 (fun i -> Netlist.input net (Printf.sprintf "x%d" i))) in
  for _ = 1 to 3 do
    let y = !layer in
    layer := Array.mapi (fun i v -> Netlist.gate net Gate.Xor v y.((i + 1) mod 8)) y
  done;
  Array.iteri (fun i v -> Netlist.mark_output net (Printf.sprintf "o%d" i) v) !layer;
  net

type tenant = {
  label : string;
  client : Client.t;
  cloud : Gates.cloud_keyset;
  program : Pipeline.compiled;
  reference : bool array -> bool array;
}

type instance = {
  dom : Service.stats Domain.t;
  conns : (Service_client.t * int) array;  (** Connection and session per tenant. *)
}

let start ~obs tenants =
  let port = Atomic.make 0 in
  let dom =
    Domain.spawn (fun () ->
        Service.serve
          ~opts:{ Service.default_opts with Pytfhe_backend.Executor.obs }
          ~config:{ Service.default_config with port = 0 }
          ~ready:(Atomic.set port) ())
  in
  while Atomic.get port = 0 do
    Unix.sleepf 0.0005
  done;
  let conns =
    Array.map
      (fun t ->
        let c = Service_client.connect ~port:(Atomic.get port) () in
        let client_id = Client.client_id t.client in
        Service_client.register c ~client_id t.cloud;
        (c, Service_client.open_session c ~client_id (Client.params t.client)))
      tenants
  in
  { dom; conns }

let stop inst =
  Service_client.shutdown (fst inst.conns.(0));
  Array.iter (fun (c, _) -> Service_client.close c) inst.conns;
  Domain.join inst.dom

type reply = {
  latency : float;  (** Submit -> reply, seconds. *)
  encrypt : float;
  decrypt : float;
  queue_delay : float;
  exec_wall : float;
  bootstraps : int;
  ok : bool;
}

(* One tenant's closed loop: keep [in_flight] requests outstanding while
   the shared [budget] of requests lasts, awaiting them in submission order.
   Sharing one budget keeps both tenants loading the service until the end
   of the window, whichever shape runs faster. *)
let drive l ~rng ~budget (t : tenant) (conn, session) =
  let n_in = Netlist.input_count t.program.Pipeline.netlist in
  let pending = Queue.create () in
  let submit slot =
    if Atomic.fetch_and_add budget (-1) > 0 then begin
    let bits = Array.init n_in (fun _ -> Rng.bool rng) in
    let t0 = now () in
    let cts = Client.encrypt_bits t.client bits in
    let encrypt = now () -. t0 in
    let ts = Trace.now l.sink and t0 = now () in
    let id =
      Service_client.submit conn ~session ~name:t.label ~program:t.program.Pipeline.binary ~inputs:cts
    in
    Queue.push (slot, id, bits, encrypt, ts, t0) pending
    end
  in
  for slot = 0 to in_flight - 1 do
    submit slot
  done;
  let replies = ref [] in
  while not (Queue.is_empty pending) do
    let slot, id, bits, encrypt, ts, t0 = Queue.pop pending in
    let outcome = Service_client.await ~timeout:300. conn id in
    let latency = now () -. t0 in
    if Trace.enabled l.sink then
      Trace.span
        (track l (Printf.sprintf "service.%s%d" t.label slot))
        ~cat:"service" ~name:(Printf.sprintf "request %s#%d" t.label id) ~t0:ts ~t1:(Trace.now l.sink);
    let reply =
      match outcome with
      | Service_client.Done { outputs; queue_delay; exec_wall; bootstraps } ->
        let t1 = now () in
        let got = Client.decrypt_bits t.client outputs in
        let decrypt = now () -. t1 in
        let ok = got = t.reference bits in
        if not ok then log "request %s#%d: reply disagrees with the closed form" t.label id;
        { latency; encrypt; decrypt; queue_delay; exec_wall; bootstraps; ok }
      | Service_client.Failed { code; message } ->
        log "request %s#%d failed: %s %s" t.label id (Service.string_of_error_code code) message;
        { latency; encrypt; decrypt = 0.; queue_delay = 0.; exec_wall = 0.; bootstraps = 0; ok = false }
    in
    replies := reply :: !replies;
    submit slot
  done;
  List.rev !replies

(* Both tenants at once, one system thread each; the seed picks which one
   starts first.  Returns every reply and the window's wall seconds. *)
let measure l ~seed ~requests tenants inst =
  let order = if seed land 1 = 0 then [ 0; 1 ] else [ 1; 0 ] in
  let budget = Atomic.make requests in
  let results = Array.make 2 (Ok []) in
  Gc.full_major ();
  let t0 = now () in
  span l "op" "closed loop" (fun () ->
      List.map
        (fun i ->
          let rng = Rng.create ~seed:((seed * 7919) + i) () in
          Thread.create
            (fun () ->
              results.(i) <- (try Ok (drive l ~rng ~budget tenants.(i) inst.conns.(i)) with e -> Error e))
            ())
        order
      |> List.iter Thread.join);
  let window = now () -. t0 in
  let per_tenant = Array.map (function Ok r -> r | Error e -> raise e) results in
  Array.iteri
    (fun i rs ->
      log "tenant %s: %d replies, median latency %.4f s" tenants.(i).label (List.length rs)
        (median (Array.of_list (List.map (fun r -> r.latency) rs))))
    per_tenant;
  (List.concat (Array.to_list per_tenant), window)

let run (a : args) =
  let sink = if a.trace then Trace.create () else Trace.null in
  let l = ledger sink ~workload:a.workload in
  let params = if a.smoke then smoke_params () else Params.test in
  (* At least 200 requests, so p90 has 20 samples beyond it. *)
  let requests = if a.smoke then 12 else max 200 (int_of_float (Float.round (a.seconds *. 10.))) in
  let compile obs =
    let c = Pipeline.compile ~obs ~optimize:false ~name:"A" (chain_net ()) in
    let d = Pipeline.compile ~obs ~optimize:false ~name:"B" (lattice_net ()) in
    (c, d)
  in
  let keygen_times = ref [] in
  (* A set-up compiles both programs, generates both tenants' keys, starts
     the service and registers and opens a session per tenant. *)
  let setup ~obs =
    let chain, lattice = span l "core" "compile" (fun () -> compile l.sink) in
    let keys i =
      let t0 = now () in
      let k = span l "core" "keygen" (fun () -> Client.keygen ~params ~seed:((a.seed * 2) + i) ()) in
      keygen_times := (now () -. t0) :: !keygen_times;
      k
    in
    let (ca, ka), (cb, kb) = (keys 0, keys 1) in
    let tenants =
      [|
        { label = "A"; client = ca; cloud = ka; program = chain; reference = Refs.chain };
        { label = "B"; client = cb; cloud = kb; program = lattice; reference = Refs.lattice };
      |]
    in
    (tenants, span l "service" "start" (fun () -> start ~obs tenants))
  in
  (* Twelve set-ups in blocks of three, each after stopping the one before;
     the last is kept. *)
  let (tenants, inst), setup_s =
    span l "op" "setup" (fun () ->
        repeat
          ~release:(fun (_, inst) -> ignore (stop inst))
          ~blocks:(if a.smoke then 2 else 4)
          ~per_block:(if a.smoke then 1 else 3)
          (fun _ -> setup ~obs:Trace.null))
  in
  let programs = Array.map (fun t -> t.program.Pipeline.binary) tenants in
  let parsed = Array.map (fun b -> Stats.compute (Binary.parse b)) programs in
  let median_of f rs = median (Array.of_list (List.map f rs)) in
  let failed rs = List.length (List.filter (fun r -> not r.ok) rs) in
  let report label replies window (stats : Service.stats) =
    log "%s: %d requests sent, %d completed, %d failed in %.3f s (batch fill %.2f over %d launches)" label
      (List.length replies) stats.Service.requests_completed
      (failed replies) window stats.Service.batch_fill stats.Service.batch_launches
  in
  if not a.trace then begin
    let replies, window = measure (untraced ~workload:a.workload) ~seed:a.seed ~requests tenants inst in
    let stats = stop inst in
    let bootstraps = List.fold_left (fun s r -> s + r.bootstraps) 0 replies in
    report "closed loop" replies window stats;
    {
      attempted = List.length replies;
      failed = failed replies;
      metrics =
        [
          ("setup_s", setup_s);
          ("latency_s", median_of (fun r -> r.latency) replies);
          ("throughput_rps", float_of_int stats.Service.requests_completed /. window);
          ("gates_per_s", float_of_int bootstraps /. window);
          ("program_bootstraps", float_of_int (Array.fold_left (fun s p -> s + p.Stats.bootstraps) 0 parsed));
          ("binary_bytes", float_of_int (Array.fold_left (fun s b -> s + Bytes.length b) 0 programs));
          ("peak_heap_mb", peak_heap_mb ());
        ];
    }
  end
  else begin
    let plain, plain_window = measure (untraced ~workload:a.workload) ~seed:a.seed ~requests tenants inst in
    report "untraced closed loop" plain plain_window (stop inst);
    (* Compile time per call, from blocks of untraced compiles, while no
       service domain runs. *)
    let compile_s = per_call ~blocks:9 ~per_block:200 (fun () -> compile Trace.null) in
    (* A fresh instance whose scheduler reports into its own sink (one
       writer per sink), merged into the run's trace afterwards. *)
    let svc_sink = Trace.create ~epoch:(Trace.epoch sink) () in
    let inst = span l "op" "restart" (fun () -> start ~obs:svc_sink tenants) in
    let mark = gc_mark () in
    let replies, window = measure l ~seed:a.seed ~requests tenants inst in
    let alloc_mb, majors = gc_since mark in
    let stats = stop inst in
    report "traced closed loop" replies window stats;
    Trace.inject sink ~track:(Trace.external_track sink ~name:"service") (Trace.flush svc_sink);
    let t = tenants.(0) in
    let _, probe_metrics =
      span l "op" "probes" (fun () -> Probes.run l ~client:t.client ~cloud:t.cloud ~seed:a.seed)
    in
    let spans = Layers.of_sink sink ~out_dir:a.out_dir ~workload:a.workload ~seed:a.seed in
    let wire =
      Array.fold_left
        (fun s (tt : Service.tenant_traffic) -> s + tt.Service.bytes_in + tt.Service.bytes_out)
        0 stats.Service.tenants
    in
    let latencies = Array.of_list (List.map (fun r -> r.latency) replies) in
    {
      attempted = List.length plain + List.length replies;
      failed = failed plain + failed replies;
      metrics =
        [
          ("core.keygen_s", median (Array.of_list !keygen_times));
          ("core.compile_s", compile_s);
          ("core.encrypt_s", median_of (fun r -> r.encrypt) replies);
          ("core.decrypt_s", median_of (fun r -> r.decrypt) replies);
          ("circuit.depth", float_of_int (Array.fold_left (fun m p -> max m p.Stats.depth) 0 parsed));
          ("circuit.max_width", float_of_int (Array.fold_left (fun m p -> max m p.Stats.max_width) 0 parsed));
          ("circuit.assemble_s", Layers.span_median spans ~track:(( = ) "compile") ~name:(( = ) "assemble"));
          ("circuit.stats_s", Layers.span_median spans ~track:(( = ) "compile") ~name:(( = ) "stats"));
          ("circuit.levelize_s", Layers.span_median spans ~track:(( = ) "compile") ~name:(( = ) "levelize"));
          ("gc.allocated_mb", alloc_mb /. float_of_int (List.length replies));
          ("gc.major_collections", float_of_int majors /. float_of_int (List.length replies));
          ("service.queue_delay_s", median_of (fun r -> r.queue_delay) replies);
          ("service.exec_wall_s", median_of (fun r -> r.exec_wall) replies);
          ("service.client_s", median_of (fun r -> r.latency -. r.queue_delay -. r.exec_wall) replies);
          ("service.latency_p90_s", Option.value (percentile_with_tail latencies 0.9) ~default:0.);
          ("service.batch_fill", stats.Service.batch_fill);
          ("service.batch_launches", float_of_int stats.Service.batch_launches);
          ("service.wire_mb", float_of_int wire /. 1e6);
          ("service.requests_failed", float_of_int stats.Service.requests_failed);
          ("trace.overhead_s", median_of (fun r -> r.latency) replies -. median_of (fun r -> r.latency) plain);
        ]
        @ probe_metrics @ Layers.self_metrics spans;
    }
  end
