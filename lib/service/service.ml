(* The FHE-as-a-service server: a persistent TCP endpoint that holds many
   tenants' cloud keysets and executes their submitted programs, packing
   independent ready gates from concurrent requests that share a keyset
   into the same launch of the configured placement.

   Design notes:

   - One thread, one select loop.  Admission, frame parsing, scheduling
     and execution all happen on the scheduler thread: a launch is the
     unit of progress, and the loop re-polls every socket between
     launches, so newly arrived requests join the packing frontier at the
     next launch boundary (latency granularity = one launch).
   - The key-management model is the TFHE SecretKey/CloudKey split: SREG
     registers a *cloud* keyset under a client id (the secret keyset never
     crosses the wire), SSES opens a session whose params (transform
     included) must match the registered keyset, SREQ executes under a
     session.
   - A request is its submitted bytes plus a Wave.cursor over them; no
     netlist is ever built.  Each tenant generation binds the placement
     once (cpu: an engine; par: per-domain engines on the service's one
     pool; dist: a worker session).
   - Cross-request packing is per tenant: ciphertexts under different
     keys can never share a launch.  Within a tenant the scheduler takes
     ready jobs — gates and LUT rotation groups alike — from requests in
     admission order up to the binding's capacity and runs them as one
     run_wave, so replies are ciphertext-bit-exact with a per-tenant
     Server.run.
   - Failure isolation: a frame whose payload fails validation draws an
     SERR on that connection and nothing else; a program the cursor
     rejects fails only its own request; a connection dying takes its own
     sessions and in-flight requests with it; evicting a keyset fails
     exactly that tenant's in-flight requests; a placement failing a
     launch fails that launch's requests and drops the binding. *)

module Wire = Pytfhe_util.Wire
module Trace = Pytfhe_obs.Trace
module Quantile = Pytfhe_obs.Quantile
module Framing = Pytfhe_backend.Framing
module Par_eval = Pytfhe_backend.Par_eval
module Wave = Pytfhe_backend.Wave
module Executor = Pytfhe_backend.Executor
module Exec_obs = Pytfhe_backend.Exec_obs
module Server = Pytfhe_core.Server
open Pytfhe_tfhe

(* ------------------------------------------------------------------ *)
(* Protocol vocabulary                                                 *)
(* ------------------------------------------------------------------ *)

type error_code = Corrupt | Unknown | Evicted | Busy | Mismatch | Internal

let int_of_error_code = function
  | Corrupt -> 1
  | Unknown -> 2
  | Evicted -> 3
  | Busy -> 4
  | Mismatch -> 5
  | Internal -> 6

let error_code_of_int = function
  | 1 -> Corrupt
  | 2 -> Unknown
  | 3 -> Evicted
  | 4 -> Busy
  | 5 -> Mismatch
  | 6 -> Internal
  | v -> raise (Wire.Corrupt (Printf.sprintf "Service: unknown error code %d" v))

let string_of_error_code = function
  | Corrupt -> "corrupt"
  | Unknown -> "unknown"
  | Evicted -> "evicted"
  | Busy -> "busy"
  | Mismatch -> "mismatch"
  | Internal -> "internal"

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

type tenant_traffic = { id : string; bytes_in : int; bytes_out : int }

type stats = {
  backend : string;
  keysets_registered : int;
  keysets_evicted : int;
  sessions_opened : int;
  requests_admitted : int;
  requests_completed : int;
  requests_failed : int;
  batch_launches : int;
  batched_gates : int;
  batch_fill : float;
  lut_rotations : int;
  queue_depth : int;
  active_requests : int;
  max_queue_depth : int;
  latency : Quantile.summary;
  tenants : tenant_traffic array;
}

let write_stats buf s =
  Wire.write_string buf s.backend;
  Wire.write_i64 buf s.keysets_registered;
  Wire.write_i64 buf s.keysets_evicted;
  Wire.write_i64 buf s.sessions_opened;
  Wire.write_i64 buf s.requests_admitted;
  Wire.write_i64 buf s.requests_completed;
  Wire.write_i64 buf s.requests_failed;
  Wire.write_i64 buf s.batch_launches;
  Wire.write_i64 buf s.batched_gates;
  Wire.write_f64 buf s.batch_fill;
  Wire.write_i64 buf s.lut_rotations;
  Wire.write_i64 buf s.queue_depth;
  Wire.write_i64 buf s.active_requests;
  Wire.write_i64 buf s.max_queue_depth;
  Wire.write_i64 buf s.latency.Quantile.count;
  Wire.write_f64 buf s.latency.Quantile.mean;
  Wire.write_f64 buf s.latency.Quantile.p50;
  Wire.write_f64 buf s.latency.Quantile.p90;
  Wire.write_f64 buf s.latency.Quantile.p99;
  Wire.write_f64 buf s.latency.Quantile.max;
  Wire.write_array buf
    (fun buf t ->
      Wire.write_string buf t.id;
      Wire.write_i64 buf t.bytes_in;
      Wire.write_i64 buf t.bytes_out)
    s.tenants

let read_stats r =
  let backend = Wire.read_string r in
  let keysets_registered = Wire.read_i64 r in
  let keysets_evicted = Wire.read_i64 r in
  let sessions_opened = Wire.read_i64 r in
  let requests_admitted = Wire.read_i64 r in
  let requests_completed = Wire.read_i64 r in
  let requests_failed = Wire.read_i64 r in
  let batch_launches = Wire.read_i64 r in
  let batched_gates = Wire.read_i64 r in
  let batch_fill = Wire.read_f64 r in
  let lut_rotations = Wire.read_i64 r in
  let queue_depth = Wire.read_i64 r in
  let active_requests = Wire.read_i64 r in
  let max_queue_depth = Wire.read_i64 r in
  let count = Wire.read_i64 r in
  let mean = Wire.read_f64 r in
  let p50 = Wire.read_f64 r in
  let p90 = Wire.read_f64 r in
  let p99 = Wire.read_f64 r in
  let max = Wire.read_f64 r in
  let tenants =
    Wire.read_array r (fun r ->
        let id = Wire.read_string r in
        let bytes_in = Wire.read_i64 r in
        let bytes_out = Wire.read_i64 r in
        { id; bytes_in; bytes_out })
  in
  {
    backend;
    keysets_registered;
    keysets_evicted;
    sessions_opened;
    requests_admitted;
    requests_completed;
    requests_failed;
    batch_launches;
    batched_gates;
    batch_fill;
    lut_rotations;
    queue_depth;
    active_requests;
    max_queue_depth;
    latency = { Quantile.count; mean; p50; p90; p99; max };
    tenants;
  }

(* ------------------------------------------------------------------ *)
(* Configuration                                                       *)
(* ------------------------------------------------------------------ *)

type config = {
  host : string;
  port : int;
  backlog : int;
  max_active : int;
  max_queue : int;
  max_program_bytes : int;
  backend : Server.exec_backend;
  idle_timeout : float;
}

let default_config =
  {
    host = "127.0.0.1";
    port = 0;
    backlog = 16;
    max_active = 32;
    max_queue = 256;
    max_program_bytes = 1 lsl 26;
    backend = Server.Cpu;
    idle_timeout = 0.05;
  }

let default_opts = Executor.default_opts

(* ------------------------------------------------------------------ *)
(* Server state                                                        *)
(* ------------------------------------------------------------------ *)

type conn = {
  fd : Unix.file_descr;
  hdr : Bytes.t;
  mutable hdr_got : int;
  mutable payload : Bytes.t;
  mutable payload_got : int;
  mutable expecting : int;  (* -1 = reading header *)
  mutable alive : bool;
}

type session = { s_client : string; s_generation : int; s_conn : conn }

type request = {
  rq_id : int;
  rq_conn : conn;
  rq_client : string;
  rq_generation : int;
  rq_program : bytes;
  rq_inputs : Lwe.sample array;
  mutable rq_cursor : Wave.cursor option;  (* from admission on *)
  mutable rq_next : int;  (* next unexecuted job of the cursor's wave *)
  mutable rq_outs : Lwe.sample list;  (* that wave's outputs so far, reversed *)
  rq_submitted : float;
  mutable rq_started : float;
  mutable rq_bootstraps : int;
  mutable rq_done : bool;
}

(* A tenant generation's keyset and, while bound, its placement. *)
type tenant = { t_ck : Gates.cloud_keyset; mutable t_binding : Executor.binding option }

type state = {
  cfg : config;
  opts : Executor.opts;
  pool : Par_eval.pool option;  (* the one domain pool of a par placement *)
  ring : Keyring.t;
  sessions : (int, session) Hashtbl.t;
  tenants : (string * int, tenant) Hashtbl.t;  (* (client, generation) *)
  traffic : (string, int ref * int ref) Hashtbl.t;  (* client -> in, out *)
  mutable conns : conn list;
  mutable active : request list;  (* admission order *)
  queue : request Queue.t;
  mutable running : bool;
  mutable next_session : int;
  (* counters *)
  mutable c_registered : int;
  mutable c_evicted : int;
  mutable c_sessions : int;
  mutable c_admitted : int;
  mutable c_completed : int;
  mutable c_failed : int;
  mutable c_launches : int;
  mutable c_gates : int;
  mutable c_lut_rotations : int;
  mutable c_max_queue : int;
  mutable latencies : float list;
  tr : Trace.track;
}

let traffic_of st id =
  match Hashtbl.find_opt st.traffic id with
  | Some t -> t
  | None ->
    let t = (ref 0, ref 0) in
    Hashtbl.replace st.traffic id t;
    t

let count_in st id bytes =
  let i, _ = traffic_of st id in
  i := !i + bytes

let count_out st id bytes =
  let _, o = traffic_of st id in
  o := !o + bytes

let snapshot st =
  {
    backend = Executor.placement_name st.cfg.backend;
    keysets_registered = st.c_registered;
    keysets_evicted = st.c_evicted;
    sessions_opened = st.c_sessions;
    requests_admitted = st.c_admitted;
    requests_completed = st.c_completed;
    requests_failed = st.c_failed;
    batch_launches = st.c_launches;
    batched_gates = st.c_gates;
    batch_fill =
      (if st.c_launches > 0 then float_of_int st.c_gates /. float_of_int st.c_launches
       else 0.0);
    lut_rotations = st.c_lut_rotations;
    queue_depth = Queue.length st.queue;
    active_requests = List.length st.active;
    max_queue_depth = st.c_max_queue;
    latency = Quantile.summarize (Array.of_list st.latencies);
    tenants =
      Hashtbl.fold
        (fun id (i, o) acc -> { id; bytes_in = !i; bytes_out = !o } :: acc)
        st.traffic []
      |> List.sort (fun a b -> String.compare a.id b.id)
      |> Array.of_list;
  }

(* ------------------------------------------------------------------ *)
(* Frame sending                                                       *)
(* ------------------------------------------------------------------ *)

let send_frame st conn ?tenant payload =
  if conn.alive then begin
    match Framing.write_frame conn.fd payload with
    | n -> ( match tenant with Some id -> count_out st id n | None -> ())
    | exception (Framing.Frame_closed | Unix.Unix_error _) -> conn.alive <- false
  end

let send_ack st conn ?tenant ~value info =
  let buf = Buffer.create 64 in
  Wire.write_magic buf "SACK";
  Wire.write_i64 buf value;
  Wire.write_string buf info;
  send_frame st conn ?tenant (Buffer.to_bytes buf)

let send_err st conn ?tenant ~req code message =
  let buf = Buffer.create 128 in
  Wire.write_magic buf "SERR";
  Wire.write_i64 buf req;
  Wire.write_u8 buf (int_of_error_code code);
  Wire.write_string buf message;
  send_frame st conn ?tenant (Buffer.to_bytes buf)

(* ------------------------------------------------------------------ *)
(* Request lifecycle                                                   *)
(* ------------------------------------------------------------------ *)

let binding st t =
  match t.t_binding with
  | Some b -> b
  | None ->
    let b = Executor.bind ~opts:st.opts ?pool:st.pool st.cfg.backend t.t_ck in
    t.t_binding <- Some b;
    b

let release t =
  Option.iter (fun b -> b.Wave.release ()) t.t_binding;
  t.t_binding <- None

let reply st rq outputs =
  let now = Unix.gettimeofday () in
  rq.rq_done <- true;
  st.c_completed <- st.c_completed + 1;
  st.latencies <- (now -. rq.rq_submitted) :: st.latencies;
  let buf = Buffer.create 4096 in
  Wire.write_magic buf "SREP";
  Wire.write_i64 buf rq.rq_id;
  Wire.write_f64 buf (rq.rq_started -. rq.rq_submitted);
  Wire.write_f64 buf (now -. rq.rq_started);
  Wire.write_i64 buf rq.rq_bootstraps;
  Wire.write_array buf Lwe.write_sample outputs;
  send_frame st rq.rq_conn ~tenant:rq.rq_client (Buffer.to_bytes buf)

let fail_request st rq code message =
  if not rq.rq_done then begin
    rq.rq_done <- true;
    st.c_failed <- st.c_failed + 1;
    if rq.rq_conn.alive then
      send_err st rq.rq_conn ~tenant:rq.rq_client ~req:rq.rq_id code message
  end

(* Once a request has run every job of its current wave: store the
   wave's outputs, and reply when the program is done.  A program the
   cursor rejects from a later segment fails only its own request. *)
let settle st rq =
  let c = Option.get rq.rq_cursor in
  match
    if (not (Wave.finished c)) && rq.rq_next = Array.length (Wave.jobs c) then begin
      Wave.deliver c (Array.of_list (List.rev rq.rq_outs));
      rq.rq_next <- 0;
      rq.rq_outs <- []
    end
  with
  | exception (Failure msg | Invalid_argument msg | Wire.Corrupt msg) ->
    fail_request st rq Corrupt msg
  | () -> if Wave.finished c then reply st rq (Wave.results c)

let admit st rq =
  st.c_admitted <- st.c_admitted + 1;
  rq.rq_started <- Unix.gettimeofday ();
  match Keyring.find st.ring rq.rq_client with
  | None -> fail_request st rq Evicted "keyset evicted before admission"
  | Some e when e.Keyring.generation <> rq.rq_generation ->
    fail_request st rq Unknown "keyset re-registered; reopen the session"
  | Some e -> (
    let key = (rq.rq_client, rq.rq_generation) in
    if not (Hashtbl.mem st.tenants key) then
      Hashtbl.replace st.tenants key { t_ck = e.Keyring.keyset; t_binding = None };
    let t = Hashtbl.find st.tenants key in
    (* The cursor reads the program's first segment here: a program that
       fits one segment is checked in full before it runs. *)
    match Wave.cursor t.t_ck (Wave.Bytes rq.rq_program) rq.rq_inputs with
    | exception (Failure msg | Invalid_argument msg | Wire.Corrupt msg) ->
      fail_request st rq Corrupt msg
    | c -> (
      match binding st t with
      | exception (Failure msg | Invalid_argument msg) -> fail_request st rq Internal msg
      | _ ->
        rq.rq_cursor <- Some c;
        st.active <- st.active @ [ rq ];
        settle st rq))

let prune_active st = st.active <- List.filter (fun rq -> not rq.rq_done) st.active

let admit_waiting st =
  while (not (Queue.is_empty st.queue)) && List.length st.active < st.cfg.max_active do
    admit st (Queue.pop st.queue)
  done;
  prune_active st

(* A generation keeps its binding while it is current or has admitted
   requests running; an evicted or re-registered one loses it after its
   last request. *)
let release_stale st =
  Hashtbl.filter_map_inplace
    (fun (client, generation) t ->
      let current =
        Option.map (fun e -> e.Keyring.generation) (Keyring.find st.ring client) = Some generation
      in
      if current
         || List.exists (fun rq -> rq.rq_client = client && rq.rq_generation = generation) st.active
      then Some t
      else begin
        release t;
        None
      end)
    st.tenants

let has_jobs rq =
  match rq.rq_cursor with
  | Some c -> (not rq.rq_done) && rq.rq_next < Array.length (Wave.jobs c)
  | None -> false

(* One launch: pick the tenant owning the oldest ready request, fill up to
   its binding's capacity with ready jobs from that tenant's requests in
   admission order, run them as one run_wave, then settle every request
   whose wave drained.  A placement failure fails the launch's requests
   and releases the binding; the tenant binds afresh when next needed. *)
let launch_one st =
  match List.find_opt has_jobs st.active with
  | None -> ()
  | Some first -> (
    let client = first.rq_client and generation = first.rq_generation in
    let t = Hashtbl.find st.tenants (client, generation) (* pinned at admission *) in
    let ready rq = has_jobs rq && rq.rq_client = client && rq.rq_generation = generation in
    match binding st t with
    | exception (Failure msg | Invalid_argument msg) ->
      List.iter (fun rq -> if ready rq then fail_request st rq Internal msg) st.active
    | b ->
      let picked = ref [] and budget = ref (b.Wave.capacity ()) in
      List.iter
        (fun rq ->
          if ready rq then begin
            let jobs = Wave.jobs (Option.get rq.rq_cursor) in
            while !budget > 0 && rq.rq_next < Array.length jobs do
              picked := (rq, jobs.(rq.rq_next)) :: !picked;
              rq.rq_next <- rq.rq_next + 1;
              decr budget
            done
          end)
        st.active;
      let picked = Array.of_list (List.rev !picked) in
      let len = Array.length picked in
      (match b.Wave.run_wave (Array.map snd picked) with
      | exception (Failure msg | Invalid_argument msg) ->
        Array.iter (fun (rq, _) -> fail_request st rq Internal msg) picked;
        release t
      | outs ->
        let pos = ref 0 in
        Array.iter
          (fun (rq, job) ->
            for k = 0 to Wave.outputs job - 1 do
              rq.rq_outs <- outs.(!pos + k) :: rq.rq_outs
            done;
            pos := !pos + Wave.outputs job;
            rq.rq_bootstraps <- rq.rq_bootstraps + 1;
            match job with
            | Wave.Group _ -> st.c_lut_rotations <- st.c_lut_rotations + 1
            | Wave.Gate _ -> ())
          picked;
        st.c_launches <- st.c_launches + 1;
        st.c_gates <- st.c_gates + len;
        Array.iter (fun (rq, _) -> if not rq.rq_done then settle st rq) picked);
      prune_active st;
      if Trace.enabled st.opts.Executor.obs then begin
        Exec_obs.service_counters st.tr
          ~queue_depth:(Queue.length st.queue)
          ~active:(List.length st.active) ~launches:1 ~gates:len ~cap:(b.Wave.capacity ());
        Trace.drain st.opts.Executor.obs
      end)

(* ------------------------------------------------------------------ *)
(* Frame handling                                                      *)
(* ------------------------------------------------------------------ *)

let each_request st f =
  List.iter f st.active;
  Queue.iter f st.queue

let close_conn st conn =
  if conn.alive then begin
    conn.alive <- false;
    (try Unix.close conn.fd with Unix.Unix_error _ -> ());
    (* Sessions die with their connection, and its in-flight requests
       have nowhere to reply. *)
    Hashtbl.filter_map_inplace (fun _ s -> if s.s_conn == conn then None else Some s) st.sessions;
    each_request st (fun rq ->
        if rq.rq_conn == conn then fail_request st rq Internal "connection closed");
    prune_active st
  end

let evict_client st conn id =
  Keyring.validate_id id;
  let existed = Keyring.evict st.ring id in
  if existed then begin
    st.c_evicted <- st.c_evicted + 1;
    (* Fail exactly this tenant's in-flight and queued requests, and
       release every generation's binding. *)
    each_request st (fun rq ->
        if rq.rq_client = id then fail_request st rq Evicted "keyset evicted");
    prune_active st;
    release_stale st;
    let drained = Queue.fold (fun acc rq -> if rq.rq_done then acc else rq :: acc) [] st.queue in
    Queue.clear st.queue;
    List.iter (fun rq -> Queue.push rq st.queue) (List.rev drained);
    (* Sessions bound to the evicted keyset become invalid. *)
    Hashtbl.filter_map_inplace (fun _ s -> if s.s_client = id then None else Some s) st.sessions
  end;
  send_ack st conn ~tenant:id ~value:(if existed then 1 else 0)
    (if existed then "evicted" else "not registered")

let handle_frame st conn payload =
  let size = 12 + String.length payload in
  if String.length payload < 4 then raise (Wire.Corrupt "Service: short payload");
  let magic = String.sub payload 0 4 in
  let r = Wire.reader_of_string payload in
  match magic with
  | "SREG" ->
    Wire.read_magic r "SREG";
    let id = Wire.read_string r in
    Keyring.validate_id id;
    count_in st id size;
    (* The keyset is the payload's last field, parsed in place rather than
       copied out; its own parameters select the transform. *)
    let ck = Gates.read_cloud_keyset r in
    if Wire.remaining r <> 0 then raise (Wire.Corrupt "Service: trailing bytes after the SREG keyset");
    Keyring.register st.ring ~id ~now:(Unix.gettimeofday ()) ck;
    st.c_registered <- st.c_registered + 1;
    send_ack st conn ~tenant:id ~value:0 "registered"
  | "SSES" ->
    Wire.read_magic r "SSES";
    let id = Wire.read_string r in
    Keyring.validate_id id;
    count_in st id size;
    let params = Params.read r in
    (match Keyring.find st.ring id with
    | None -> send_err st conn ~tenant:id ~req:0 Unknown ("unknown client id " ^ id)
    | Some e ->
      let ck_params = e.Keyring.keyset.Gates.cloud_params in
      (* [Params.equal] compares the transform too. *)
      if not (Params.equal params ck_params) then
        send_err st conn ~tenant:id ~req:0 Mismatch
          "parameter set does not match the registered keyset"
      else begin
        let sid = st.next_session in
        st.next_session <- st.next_session + 1;
        st.c_sessions <- st.c_sessions + 1;
        Hashtbl.replace st.sessions sid
          { s_client = id; s_generation = e.Keyring.generation; s_conn = conn };
        send_ack st conn ~tenant:id ~value:sid "session open"
      end)
  | "SREQ" -> (
    Wire.read_magic r "SREQ";
    let sid = Wire.read_i64 r in
    let req = Wire.read_i64 r in
    match Hashtbl.find_opt st.sessions sid with
    | None -> send_err st conn ~req Unknown (Printf.sprintf "unknown session %d" sid)
    | Some s -> (
      count_in st s.s_client size;
      try
        let _name = Wire.read_string r in
        let program = Wire.read_string r in
        let inputs = Wire.read_array r Lwe.read_sample in
        (* Admission control happens on the raw length, before a single
           instruction is decoded: size is the one property judged
           without paying for a parse. *)
        if String.length program > st.cfg.max_program_bytes then
          raise
            (Wire.Corrupt
               (Printf.sprintf "Service: program is %d bytes, over the %d-byte admission cap"
                  (String.length program) st.cfg.max_program_bytes));
        if Queue.length st.queue >= st.cfg.max_queue then
          send_err st conn ~tenant:s.s_client ~req Busy "admission queue full"
        else begin
          let rq =
            {
              rq_id = req;
              rq_conn = conn;
              rq_client = s.s_client;
              rq_generation = s.s_generation;
              rq_program = Bytes.unsafe_of_string program;
              rq_inputs = inputs;
              rq_cursor = None;
              rq_next = 0;
              rq_outs = [];
              rq_submitted = Unix.gettimeofday ();
              rq_started = 0.0;
              rq_bootstraps = 0;
              rq_done = false;
            }
          in
          Queue.push rq st.queue;
          st.c_max_queue <- Int.max st.c_max_queue (Queue.length st.queue)
        end
      with
      | Wire.Corrupt msg -> send_err st conn ~tenant:s.s_client ~req Corrupt msg
      | Failure msg -> send_err st conn ~tenant:s.s_client ~req Corrupt msg))
  | "SEVI" ->
    Wire.read_magic r "SEVI";
    let id = Wire.read_string r in
    count_in st id size;
    evict_client st conn id
  | "SSTA" ->
    Wire.read_magic r "SSTA";
    let buf = Buffer.create 512 in
    Wire.write_magic buf "SSTR";
    write_stats buf (snapshot st);
    send_frame st conn (Buffer.to_bytes buf)
  | "SBYE" ->
    send_ack st conn ~value:0 "bye";
    close_conn st conn
  | "SHUT" ->
    send_ack st conn ~value:0 "shutting down";
    st.running <- false
  | m -> raise (Wire.Corrupt ("Service: unknown message magic " ^ m))

(* A protocol error inside a frame draws an SERR and leaves the
   connection (and every other session) running; only envelope-level
   corruption kills the connection, because the byte stream can no longer
   be trusted to re-synchronize. *)
let handle_frame_safe st conn payload =
  try handle_frame st conn payload with
  | Wire.Corrupt msg -> send_err st conn ~req:0 Corrupt msg
  | Invalid_argument msg | Failure msg -> send_err st conn ~req:0 Internal msg

(* A frame is complete: hand its payload over and await the next header.
   A zero-length frame completes with its header, before any payload byte
   could arrive. *)
let finish_frame st conn =
  let payload = Bytes.unsafe_to_string conn.payload in
  conn.expecting <- -1;
  conn.hdr_got <- 0;
  conn.payload <- Bytes.empty;
  handle_frame_safe st conn payload

let ingest st conn buf n =
  let pos = ref 0 in
  while !pos < n && conn.alive do
    if conn.expecting < 0 then begin
      let take = Int.min (12 - conn.hdr_got) (n - !pos) in
      Bytes.blit buf !pos conn.hdr conn.hdr_got take;
      conn.hdr_got <- conn.hdr_got + take;
      pos := !pos + take;
      if conn.hdr_got = 12 then
        if Bytes.sub_string conn.hdr 0 4 <> Framing.frame_magic then close_conn st conn
        else begin
          let len = Int64.to_int (Bytes.get_int64_le conn.hdr 4) in
          if len < 0 || len > Framing.max_frame then close_conn st conn
          else begin
            conn.expecting <- len;
            conn.payload_got <- 0;
            if len = 0 then finish_frame st conn
          end
        end
    end
    else begin
      let take = Int.min (conn.expecting - conn.payload_got) (n - !pos) in
      (* The buffer grows with the bytes that arrive, doubling up to the
         declared length, so a header alone allocates nothing and a whole
         payload is handed over without another copy. *)
      let need = conn.payload_got + take in
      if need > Bytes.length conn.payload then begin
        let grown =
          Bytes.create (Int.min conn.expecting (Int.max need (2 * Bytes.length conn.payload)))
        in
        Bytes.blit conn.payload 0 grown 0 conn.payload_got;
        conn.payload <- grown
      end;
      Bytes.blit buf !pos conn.payload conn.payload_got take;
      conn.payload_got <- conn.payload_got + take;
      pos := !pos + take;
      if conn.payload_got = conn.expecting then finish_frame st conn
    end
  done

(* ------------------------------------------------------------------ *)
(* The select loop                                                     *)
(* ------------------------------------------------------------------ *)

let serve ?(opts = default_opts) ?(config = default_config) ?(ready = fun _ -> ()) () =
  if opts.Executor.batch < 1 then invalid_arg "Service.serve: batch must be >= 1";
  (* A tenant hanging up while a reply is in flight must surface as EPIPE
     on that connection, not kill the server process.  Left installed on
     return: in-process peers (tests, benches) may still be flushing
     goodbyes when the loop exits, and restoring the default disposition
     under them would turn that race into a SIGPIPE death. *)
  (try ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore) with Invalid_argument _ -> ());
  let listen_fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listen_fd Unix.SO_REUSEADDR true;
  Unix.bind listen_fd (Unix.ADDR_INET (Unix.inet_addr_of_string config.host, config.port));
  Unix.listen listen_fd config.backlog;
  let port =
    match Unix.getsockname listen_fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> assert false
  in
  let st =
    {
      cfg = config;
      opts;
      pool = Executor.pool config.backend;
      ring = Keyring.create ();
      sessions = Hashtbl.create 16;
      tenants = Hashtbl.create 16;
      traffic = Hashtbl.create 16;
      conns = [];
      active = [];
      queue = Queue.create ();
      running = true;
      next_session = 1;
      c_registered = 0;
      c_evicted = 0;
      c_sessions = 0;
      c_admitted = 0;
      c_completed = 0;
      c_failed = 0;
      c_launches = 0;
      c_gates = 0;
      c_lut_rotations = 0;
      c_max_queue = 0;
      latencies = [];
      tr = Trace.new_track opts.Executor.obs ~name:"service";
    }
  in
  ready port;
  let rbuf = Bytes.create 65536 in
  let have_work () = st.active <> [] || not (Queue.is_empty st.queue) in
  let have_ready () = List.exists has_jobs st.active in
  while st.running || have_work () do
    (* 1. Poll sockets.  Zero timeout while compute is pending so arriving
       requests can join the next launch; block briefly when idle. *)
    if st.running then begin
      let timeout = if have_work () then 0.0 else config.idle_timeout in
      st.conns <- List.filter (fun c -> c.alive) st.conns;
      let fds = listen_fd :: List.map (fun c -> c.fd) st.conns in
      let readable, _, _ =
        try Unix.select fds [] [] timeout with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
      in
      List.iter
        (fun fd ->
          if fd = listen_fd then begin
            match Unix.accept listen_fd with
            | cfd, _ ->
              (try Unix.setsockopt cfd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
              let conn =
                {
                  fd = cfd;
                  hdr = Bytes.create 12;
                  hdr_got = 0;
                  payload = Bytes.empty;
                  payload_got = 0;
                  expecting = -1;
                  alive = true;
                }
              in
              st.conns <- st.conns @ [ conn ]
            | exception Unix.Unix_error _ -> ()
          end
          else
            match List.find_opt (fun c -> c.fd = fd && c.alive) st.conns with
            | None -> ()
            | Some conn -> (
              match Unix.read conn.fd rbuf 0 (Bytes.length rbuf) with
              | 0 -> close_conn st conn
              | n -> ingest st conn rbuf n
              | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
                close_conn st conn
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()))
        readable
    end;
    (* 2. Admit waiting requests up to the active-set bound. *)
    admit_waiting st;
    (* 3. One batched launch of packed ready gates. *)
    if have_ready () then launch_one st;
    release_stale st
  done;
  Hashtbl.iter (fun _ t -> release t) st.tenants;
  Option.iter Par_eval.shutdown st.pool;
  (* Emit per-tenant traffic before the sink is drained for the last time. *)
  if Trace.enabled opts.Executor.obs then begin
    Hashtbl.iter
      (fun id (i, o) -> Exec_obs.tenant_bytes st.tr ~id ~bytes_in:!i ~bytes_out:!o)
      st.traffic;
    Trace.drain opts.Executor.obs
  end;
  List.iter (fun c -> if c.alive then close_conn st c) st.conns;
  (try Unix.close listen_fd with Unix.Unix_error _ -> ());
  snapshot st
