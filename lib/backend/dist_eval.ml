(* Real multi-process distributed evaluation of TFHE programs.

   Where Sched_cpu *prices* the paper's Ray cluster (§IV-D, Fig. 10) through
   a cost model, this executor actually crosses the process boundary: it
   spawns N worker processes, ships the cloud keyset once at startup, and
   then, for every wave Wave.drive produces, sends each worker one
   contiguous shard of the wave's jobs — job headers plus one operand
   Lwe_array inside a length-prefixed frame over a Unix socketpair — and
   collects the outputs, which the worker computed with Wave.exec, at a
   wave barrier.

   Workers are spawned by re-executing the host binary (create_process /
   posix_spawn) with PYTFHE_DIST_WORKER set, not by Unix.fork: the OCaml 5
   runtime permanently forbids fork in any process that has ever created a
   domain, and Par_eval creates domains.  Host executables opt in by
   calling [worker_entry] before anything else in main; a spawned worker
   then serves the gate protocol on its stdin socket and never returns.
   The DRDY handshake below turns a host that forgot the hook into a
   prompt, explicit startup failure instead of a recursive process tree.

   The coordinator is built to survive its workers, not just to use them:

   - every outstanding request has a deadline; expiry triggers a bounded
     number of backoff extensions (a slow worker gets more time) before the
     worker is declared lost, SIGKILLed and its shard reassigned;
   - while waiting, the coordinator heartbeats worker processes with
     waitpid(WNOHANG), so a crashed worker is detected without waiting for
     the request timeout;
   - a reply that fails to parse (Wire.Corrupt, truncated payload, wrong
     arity) is counted, and the request is re-sent — corruption never
     propagates into the value table and never kills the coordinator;
   - loss of a worker degrades capacity gracefully: survivors absorb the
     shard, down to a single worker.  Only losing *every* worker raises.

   Because each job runs the identical torus operation sequence as on the
   other placements — only in another address space, with the operands
   round-tripped through the exact 32-bit wire encoding — the output
   ciphertexts are bit-exact with the cpu placement for any worker count
   and any fault pattern the executor survives. *)

module Gate = Pytfhe_circuit.Gate
module Wire = Pytfhe_util.Wire
module Trace = Pytfhe_obs.Trace
open Pytfhe_tfhe

(* ------------------------------------------------------------------ *)
(* Fault injection                                                     *)
(* ------------------------------------------------------------------ *)

type fault_action =
  | Crash
  | Stall of float
  | Flip_reply
  | Truncate_reply

type fault = { victim : int; after_requests : int; action : fault_action }

let write_fault buf f =
  Wire.write_i64 buf f.victim;
  Wire.write_i64 buf f.after_requests;
  match f.action with
  | Crash -> Wire.write_u8 buf 0
  | Stall s ->
    Wire.write_u8 buf 1;
    Wire.write_f64 buf s
  | Flip_reply -> Wire.write_u8 buf 2
  | Truncate_reply -> Wire.write_u8 buf 3

let read_fault r =
  let victim = Wire.read_i64 r in
  let after_requests = Wire.read_i64 r in
  let action =
    match Wire.read_u8 r with
    | 0 -> Crash
    | 1 -> Stall (Wire.read_f64 r)
    | 2 -> Flip_reply
    | 3 -> Truncate_reply
    | v -> raise (Wire.Corrupt (Printf.sprintf "Dist_eval: unknown fault action %d" v))
  in
  { victim; after_requests; action }

(* ------------------------------------------------------------------ *)
(* Configuration and stats                                             *)
(* ------------------------------------------------------------------ *)

type config = {
  workers : int;
  request_timeout : float;
  max_retries : int;
  backoff : float;
  heartbeat_interval : float;
  faults : fault list;
}

let config ?(request_timeout = 60.0) ?(max_retries = 2) ?(backoff = 2.0)
    ?(heartbeat_interval = 0.25) ?(faults = []) workers =
  if workers < 1 then invalid_arg "Dist_eval.config: workers must be >= 1";
  if request_timeout <= 0.0 then invalid_arg "Dist_eval.config: request_timeout must be > 0";
  if max_retries < 0 then invalid_arg "Dist_eval.config: max_retries must be >= 0";
  if backoff < 1.0 then invalid_arg "Dist_eval.config: backoff must be >= 1";
  { workers; request_timeout; max_retries; backoff; heartbeat_interval; faults }

type stats = {
  workers_started : int;
  workers_lost : int;
  bootstraps_executed : int;
  nots_executed : int;
  requests_sent : int;
  retries : int;
  reassignments : int;
  corrupt_frames : int;
  heartbeat_misses : int;
  keyset_bytes : int;
  bytes_to_workers : int;
  bytes_from_workers : int;
  startup_time : float;
  dispatch_time : float;
  transfer_time : float;
  compute_time : float;
  wave_wall : float array;
  wave_width : int array;
  wall_time : float;
}

(* ------------------------------------------------------------------ *)
(* Worker process                                                      *)
(* ------------------------------------------------------------------ *)

(* DHEL hello frame: worker identity, tracing plumbing (the coordinator's
   epoch makes worker timestamps directly comparable — both sides read the
   same machine clock), the fault schedule and the cloud keyset, whose own
   parameters select the transform the worker evaluates under. *)
let parse_hello r =
  Wire.read_magic r "DHEL";
  let index = Wire.read_i64 r in
  let obs_on = Wire.read_bool r in
  let obs_epoch = Wire.read_f64 r in
  let faults = Array.to_list (Wire.read_array r read_fault) in
  (index, obs_on, obs_epoch, faults, Gates.read_cloud_keyset r)

(* DJOB request: the launch capacity, one header per job — a gate code
   (0–127, any bootstrapped gate) or 128+arity (129–131) followed by the
   group's tables — then every job's operands as one flat Lwe_array (two
   rows per gate, [arity] rows per group: classic views for gates and
   arity-1 groups, lutdom ciphertexts otherwise). *)
let encode_request ~req_id ~cap ~n jobs =
  let buf = Buffer.create 4096 in
  Wire.write_magic buf "DJOB";
  Wire.write_i64 buf req_id;
  Wire.write_i64 buf cap;
  Wire.write_array buf
    (fun buf -> function
      | Wave.Gate { gate; _ } -> Wire.write_u8 buf (Gate.to_code gate)
      | Wave.Group { arity; tables; _ } ->
        Wire.write_u8 buf (128 + arity);
        Wire.write_array buf Wire.write_u8 tables)
    jobs;
  let operands =
    Array.concat
      (Array.to_list
         (Array.map
            (function Wave.Gate { a; b; _ } -> [| a; b |] | Wave.Group { operands; _ } -> operands)
            jobs))
  in
  Lwe_array.write buf (Lwe_array.of_samples ~n operands);
  Buffer.to_bytes buf

let decode_request ~n payload =
  let corrupt fmt = Printf.ksprintf (fun m -> raise (Wire.Corrupt ("Dist_eval: " ^ m))) fmt in
  let r = Wire.reader_of_string payload in
  Wire.read_magic r "DJOB";
  let req_id = Wire.read_i64 r in
  let cap = Wire.read_i64 r in
  if cap < 1 then corrupt "launch capacity %d" cap;
  let headers =
    Wire.read_array r (fun r ->
        let code = Wire.read_u8 r in
        if code < 128 then
          match Gate.of_code code with
          | Some g when not (Gate.is_unary g) -> `Gate g
          | Some _ | None -> corrupt "bad gate code %d" code
        else begin
          let arity = code - 128 in
          if arity < 1 || arity > 3 then corrupt "bad job code %d" code;
          let tables = Wire.read_array r Wire.read_u8 in
          if tables = [||] then corrupt "lut%d group without tables" arity;
          if arity = 1 && Array.length tables > 1 then
            corrupt "lut1 group with several tables";
          Array.iter
            (fun t ->
              if t lsr (1 lsl arity) <> 0 then corrupt "lut%d table %#x out of range" arity t)
            tables;
          `Group (arity, tables)
        end)
  in
  let ops = Lwe_array.read r in
  let rows =
    Array.fold_left (fun acc -> function `Gate _ -> acc + 2 | `Group (k, _) -> acc + k) 0 headers
  in
  if Lwe_array.length ops <> rows then
    corrupt "%d operand rows for jobs declaring %d" (Lwe_array.length ops) rows;
  if Lwe_array.dim ops <> n then
    corrupt "operand dimension %d, keyset has %d" (Lwe_array.dim ops) n;
  let row = ref 0 in
  let take () =
    let v = Lwe_array.get ops !row in
    incr row;
    v
  in
  let jobs =
    Array.map
      (function
        | `Gate gate ->
          let a = take () in
          let b = take () in
          Wave.Gate { gate; a; b }
        | `Group (arity, tables) ->
          Wave.Group { arity; operands = Array.init arity (fun _ -> take ()); tables })
      headers
  in
  (req_id, cap, jobs)

(* The worker is a stateless job server: after the hello frame (identity,
   tracing plumbing, fault schedule, cloud keyset) it answers DJOB frames
   with DOUT frames carrying the measured compute seconds and every job's
   outputs as one Lwe_array.  All exits go through Unix._exit: the child
   must never run the parent's at_exit handlers or flush its inherited
   stdio buffers. *)
let worker_main fd =
  let hello = Framing.read_frame fd in
  let r = Wire.reader_of_string hello in
  let index, obs_on, obs_epoch, faults, ck = parse_hello r in
  (* Build the transform tables once, up front: the job loop below must
     never find them missing (a worker that built tables mid-request would
     blow its first deadline on large rings). *)
  Params.precompute ck.Gates.cloud_params;
  let n = ck.Gates.cloud_params.Params.lwe.Params.n in
  let wsink = if obs_on then Trace.create ~epoch:obs_epoch () else Trace.null in
  let wtr = Trace.new_track wsink ~name:(Printf.sprintf "worker %d" index) in
  (* ready: the keyset is parsed.  Also the coordinator's proof that the
     spawned binary really is a worker. *)
  let rdy = Buffer.create 8 in
  Wire.write_magic rdy "DRDY";
  ignore (Framing.write_frame fd (Buffer.to_bytes rdy));
  (* Launches split a frame's jobs the same way for every capacity in
     [min cap jobs, cap], so an engine in that range is reused; a new one
     is sized to the frame, which bounds it by what the frame carries. *)
  let cached = ref None in
  let engine_for ~cap ~jobs =
    let want = min cap (max 1 jobs) in
    match !cached with
    | Some e when Wave.capacity e >= want && Wave.capacity e <= cap -> e
    | Some _ | None ->
      let e = Wave.engine ck ~cap:want in
      cached := Some e;
      e
  in
  let served = ref 0 in
  let rec loop () =
    let payload = Framing.read_frame fd in
    if String.length payload < 4 then Unix._exit 4;
    (match String.sub payload 0 4 with
    | "DBYE" -> Unix._exit 0
    | "DJOB" ->
      let req_id, cap, jobs = decode_request ~n payload in
      incr served;
      let due = List.filter (fun f -> f.after_requests = !served) faults in
      if List.exists (fun f -> f.action = Crash) due then
        (* a genuine SIGKILL mid-wave: the request dies with us *)
        Unix.kill (Unix.getpid ()) Sys.sigkill;
      List.iter (fun f -> match f.action with Stall s -> Unix.sleepf s | _ -> ()) due;
      let t0 = Unix.gettimeofday () in
      let outs = Wave.exec (engine_for ~cap ~jobs:(Array.length jobs)) jobs in
      let t1 = Unix.gettimeofday () in
      let reply =
        let buf = Buffer.create 4096 in
        Wire.write_magic buf "DOUT";
        Wire.write_i64 buf req_id;
        Wire.write_f64 buf (t1 -. t0);
        Lwe_array.write buf (Lwe_array.of_samples ~n outs);
        Buffer.to_bytes buf
      in
      (* Ship the shard's span in a DTRC frame *before* the reply, so the
         coordinator has always consumed a shard's trace by the time it
         accepts the shard — a worker dying right after the reply (or
         sending a faulted one) loses at most its own last span,
         truncating the trace but never corrupting it.  The crypto
         counters are Wave.drive's: counted here too, every job
         would be counted twice. *)
      if Trace.enabled wsink then begin
        let ep = Trace.epoch wsink in
        Trace.span wtr ~cat:"shard"
          ~name:(Printf.sprintf "req %d (%d jobs)" req_id (Array.length jobs))
          ~t0:(t0 -. ep) ~t1:(t1 -. ep);
        match Trace.flush wsink with
        | [] -> ()
        | events ->
          let tb = Buffer.create 1024 in
          Wire.write_magic tb "DTRC";
          Wire.write_i64 tb req_id;
          Wire.write_array tb Trace.write_event (Array.of_list events);
          ignore (Framing.write_frame fd (Buffer.to_bytes tb))
      end;
      if List.exists (fun f -> f.action = Flip_reply) due then begin
        (* Framing stays intact; the payload magic is flipped, so the
           coordinator's parser must reject the frame and re-request. *)
        Bytes.set reply 0 (Char.chr (Char.code (Bytes.get reply 0) lxor 0x20));
        ignore (Framing.write_frame fd reply)
      end
      else if List.exists (fun f -> f.action = Truncate_reply) due then begin
        (* Announce the full frame, deliver half of it, and die: the
           coordinator sees EOF mid-frame, never a hang. *)
        let len = Bytes.length reply in
        let header = Bytes.create 12 in
        Bytes.blit_string Framing.frame_magic 0 header 0 4;
        Bytes.set_int64_le header 4 (Int64.of_int len);
        Framing.write_all fd header 0 12;
        Framing.write_all fd reply 0 (len / 2);
        Unix._exit 3
      end
      else ignore (Framing.write_frame fd reply)
    | _ -> Unix._exit 4);
    loop ()
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Coordinator                                                         *)
(* ------------------------------------------------------------------ *)

type worker = {
  w_index : int;
  pid : int;
  fd : Unix.file_descr;
  mutable alive : bool;
  mutable reaped : bool;
}

(* One worker's contiguous slice of a wave's jobs.  Jobs carry resolved
   operands, so shards carry no program structure. *)
type shard = {
  jobs : Wave.job array;
  outputs : int;  (* outputs the reply must carry *)
  mutable result : Lwe.sample array;
  mutable owner : worker;
  mutable req_id : int;
  mutable deadline : float;
  mutable attempts : int;
  mutable sent_at : float;
}

type state = {
  cfg : config;
  lwe_n : int;
  cap : int;  (* the workers' launch capacity, [opts.batch] *)
  members : worker array;
  obs : Trace.sink;
  wtracks : int array;  (* coordinator-side track id per worker index *)
  mutable next_req : int;
  (* counters *)
  mutable requests_sent : int;
  mutable retries : int;
  mutable reassignments : int;
  mutable corrupt_frames : int;
  mutable heartbeat_misses : int;
  mutable lost : int;
  mutable bytes_out : int;
  mutable bytes_in : int;
  mutable t_dispatch : float;
  mutable t_transfer : float;
  mutable t_compute : float;
}

let live_workers st = Array.to_list st.members |> List.filter (fun w -> w.alive)

let reap w =
  if not w.reaped then begin
    (try ignore (Unix.waitpid [] w.pid) with Unix.Unix_error _ -> ());
    w.reaped <- true
  end

let kill_worker w =
  if w.alive then begin
    w.alive <- false;
    (try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ());
    (try Unix.close w.fd with Unix.Unix_error _ -> ());
    reap w
  end

(* waitpid(WNOHANG) heartbeat: true iff the process is still running. *)
let process_running w =
  if not w.alive || w.reaped then false
  else
    match Unix.waitpid [ Unix.WNOHANG ] w.pid with
    | 0, _ -> true
    | _ -> w.reaped <- true; false
    | exception Unix.Unix_error _ -> w.reaped <- true; false

let worker_env_var = "PYTFHE_DIST_WORKER"

(* Host executables call this before anything else in main.  In a spawned
   worker it serves the gate protocol on the stdin socket and exits; in
   every other process it is a no-op. *)
let worker_entry () =
  match Sys.getenv_opt worker_env_var with
  | Some "1" ->
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    (* All exits go through Unix._exit: a worker must never run the host
       program's at_exit handlers or flush inherited stdio buffers. *)
    (try worker_main Unix.stdin with
    | Framing.Frame_closed -> Unix._exit 0 (* coordinator hung up: normal shutdown *)
    | _ -> Unix._exit 2)
  | Some _ | None -> ()

(* Re-exec the host binary with the worker marker set; the worker side of
   the socketpair becomes the child's stdin (sockets are bidirectional, so
   it carries replies too).  Stdout maps to our stderr so a stray print in
   the child can never corrupt the protocol stream.  The coordinator side
   is close-on-exec, so later spawns don't inherit it and EOF detection on
   a dead worker's socket stays crisp. *)
let spawn_worker ~index =
  let coord_fd, worker_fd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.set_close_on_exec coord_fd;
  let env = Array.append (Unix.environment ()) [| worker_env_var ^ "=1" |] in
  let exe = Sys.executable_name in
  let pid = Unix.create_process_env exe [| exe |] env worker_fd Unix.stderr Unix.stderr in
  Unix.close worker_fd;
  { w_index = index; pid; fd = coord_fd; alive = true; reaped = false }

(* Everything in a DHEL payload before the serialized keyset: the only
   per-worker part, so the coordinator sends it ahead of one shared blob. *)
let hello_prefix ~index ~obs ~faults =
  let buf = Buffer.create 256 in
  Wire.write_magic buf "DHEL";
  Wire.write_i64 buf index;
  Wire.write_bool buf (Trace.enabled obs);
  Wire.write_f64 buf (Trace.epoch obs);
  Wire.write_array buf write_fault (Array.of_list faults);
  Buffer.to_bytes buf

(* Serialize and send one shard request; accounts dispatch time/bytes. *)
let send_shard st sh =
  let w = sh.owner in
  let t0 = Unix.gettimeofday () in
  st.next_req <- st.next_req + 1;
  sh.req_id <- st.next_req;
  let payload = encode_request ~req_id:sh.req_id ~cap:st.cap ~n:st.lwe_n sh.jobs in
  let n = Framing.write_frame w.fd payload in
  let now = Unix.gettimeofday () in
  st.bytes_out <- st.bytes_out + n;
  st.t_dispatch <- st.t_dispatch +. (now -. t0);
  st.requests_sent <- st.requests_sent + 1;
  sh.sent_at <- now;
  sh.deadline <- now +. st.cfg.request_timeout

exception All_workers_lost

(* The shard's owner is gone: push the work onto the least-loaded
   survivor.  Raises All_workers_lost when nobody is left. *)
let rec reassign st pending sh =
  let load w = List.length (List.filter (fun q -> q.owner == w) !pending) in
  match live_workers st with
  | [] -> raise All_workers_lost
  | w0 :: rest ->
    let target =
      List.fold_left (fun best w -> if load w < load best then w else best) w0 rest
    in
    sh.owner <- target;
    sh.attempts <- 0;
    st.reassignments <- st.reassignments + 1;
    (try send_shard st sh
     with Framing.Frame_closed ->
       st.lost <- st.lost + 1;
       kill_worker target;
       (* the pool shrank under us: try the next survivor *)
       reassign st pending sh)

let declare_lost st pending w =
  if w.alive then begin
    st.lost <- st.lost + 1;
    kill_worker w
  end;
  let orphans = List.filter (fun q -> q.owner == w) !pending in
  List.iter (fun sh -> reassign st pending sh) orphans

(* Deadline expiry: a dead owner is replaced immediately; a live owner is
   granted [max_retries] backoff extensions (it may merely be slow) before
   being declared lost. *)
let on_timeout st pending sh =
  let w = sh.owner in
  if not (process_running w) then declare_lost st pending w
  else if sh.attempts < st.cfg.max_retries then begin
    sh.attempts <- sh.attempts + 1;
    st.retries <- st.retries + 1;
    sh.deadline <-
      Unix.gettimeofday () +. (st.cfg.request_timeout *. (st.cfg.backoff ** float_of_int sh.attempts))
  end
  else declare_lost st pending w

(* A reply arrived on [w.fd].  Parse defensively: any Wire.Corrupt /
   truncation / arity mismatch re-requests the shard instead of poisoning
   the value table. *)
let on_ready st pending w =
  let resend_corrupt sh =
    st.corrupt_frames <- st.corrupt_frames + 1;
    if sh.attempts < st.cfg.max_retries then begin
      sh.attempts <- sh.attempts + 1;
      st.retries <- st.retries + 1;
      try send_shard st sh
      with Framing.Frame_closed -> declare_lost st pending w
    end
    else declare_lost st pending w
  in
  (* One frame per call: a DTRC (optional worker trace, sent before its
     DOUT) is merged and the select loop comes back for the reply still
     buffered on the socket. *)
  let parse_trc payload =
    match
      let r = Wire.reader_of_string payload in
      Wire.read_magic r "DTRC";
      let _req_id = Wire.read_i64 r in
      Wire.read_array r Trace.read_event
    with
    | events ->
      Trace.inject st.obs ~track:st.wtracks.(w.w_index) (Array.to_list events)
    | exception Wire.Corrupt _ ->
      (* a mangled trace frame costs events, never the run *)
      st.corrupt_frames <- st.corrupt_frames + 1
  in
  match
    let deadline = Unix.gettimeofday () +. st.cfg.request_timeout in
    let payload = Framing.read_frame ~deadline w.fd in
    st.bytes_in <- st.bytes_in + String.length payload + 12;
    if String.length payload >= 4 && String.sub payload 0 4 = "DTRC" then begin
      parse_trc payload;
      None
    end
    else begin
      let r = Wire.reader_of_string payload in
      Wire.read_magic r "DOUT";
      let req_id = Wire.read_i64 r in
      let compute = Wire.read_f64 r in
      let arr = Lwe_array.read r in
      if Lwe_array.dim arr <> st.lwe_n then raise (Wire.Corrupt "Dist_eval: reply dimension");
      Some (req_id, compute, Lwe_array.to_samples arr)
    end
  with
  | exception Framing.Frame_closed -> declare_lost st pending w
  | exception Framing.Frame_timeout -> declare_lost st pending w
  | exception Wire.Corrupt _ ->
    (match List.find_opt (fun q -> q.owner == w) !pending with
    | Some sh -> resend_corrupt sh
    | None -> declare_lost st pending w)
  | None -> ()
  | Some (req_id, compute, samples) -> (
    match List.find_opt (fun q -> q.owner == w && q.req_id = req_id) !pending with
    | None -> () (* stale reply from a superseded request: drop *)
    | Some sh ->
      if Array.length samples <> sh.outputs then resend_corrupt sh
      else begin
        sh.result <- samples;
        let now = Unix.gettimeofday () in
        st.t_compute <- st.t_compute +. compute;
        st.t_transfer <- st.t_transfer +. Float.max 0.0 (now -. sh.sent_at -. compute);
        pending := List.filter (fun q -> q != sh) !pending
      end)

(* Fan one wave's jobs out over the live workers, one contiguous shard
   each, and run the select loop until every shard has been answered;
   returns the outputs in job order. *)
let dispatch st jobs =
  let live = live_workers st in
  if live = [] then raise All_workers_lost;
  let owners = Array.of_list live in
  let width = Array.length jobs in
  let k = max 1 (min (Array.length owners) width) in
  let shards =
    Array.init k (fun d ->
        let lo = d * width / k and hi = (d + 1) * width / k in
        let jobs = Array.sub jobs lo (hi - lo) in
        { jobs; outputs = Array.fold_left (fun acc j -> acc + Wave.outputs j) 0 jobs;
          result = [||]; owner = owners.(d); req_id = 0; deadline = infinity; attempts = 0;
          sent_at = 0.0 })
  in
  let pending = ref (Array.to_list shards) in
  (* Initial sends, tolerating workers that died since the last wave.
     declare_lost may already have re-sent a shard through reassignment,
     so only shards still carrying req_id = 0 go out here. *)
  List.iter
    (fun sh ->
      if sh.req_id = 0 then
        try send_shard st sh
        with Framing.Frame_closed -> declare_lost st pending sh.owner)
    !pending;
  while !pending <> [] do
    let now = Unix.gettimeofday () in
    List.iter (fun sh -> if now >= sh.deadline then on_timeout st pending sh) !pending;
    if !pending <> [] then begin
      let fds =
        List.sort_uniq compare (List.map (fun sh -> sh.owner.fd) !pending)
      in
      let next_deadline =
        List.fold_left (fun acc sh -> Float.min acc sh.deadline) infinity !pending
      in
      let tmo =
        Float.max 0.005
          (Float.min st.cfg.heartbeat_interval (next_deadline -. Unix.gettimeofday ()))
      in
      (* heartbeat: catch crashed workers early, before their deadline *)
      let sweep () =
        List.iter
          (fun sh ->
            if sh.owner.alive && not (process_running sh.owner) then begin
              st.heartbeat_misses <- st.heartbeat_misses + 1;
              declare_lost st pending sh.owner
            end)
          !pending
      in
      match Unix.select fds [] [] tmo with
      | [], _, _ -> sweep ()
      | ready, _, _ ->
        List.iter
          (fun fd ->
            match List.find_opt (fun sh -> sh.owner.fd = fd && sh.owner.alive) !pending with
            | Some sh -> on_ready st pending sh.owner
            | None -> ())
          ready
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      (* a descriptor died under select: sweep for dead owners *)
      | exception Unix.Unix_error (Unix.EBADF, _, _) -> sweep ()
    end
  done;
  Array.concat (Array.to_list (Array.map (fun sh -> sh.result) shards))

let shutdown members =
  Array.iter
    (fun w ->
      if w.alive then begin
        let bye = Buffer.create 8 in
        Wire.write_magic bye "DBYE";
        (try ignore (Framing.write_frame w.fd (Buffer.to_bytes bye)) with _ -> ());
        (try Unix.close w.fd with Unix.Unix_error _ -> ());
        w.alive <- false;
        (* DBYE exits promptly; SIGKILL covers a worker wedged in a fault *)
        (try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ());
        reap w
      end
      else reap w)
    members

(* A worker session bound to one keyset: sigpipe, transform tables, spawn,
   hello, the DRDY barrier, then one DJOB per live worker per wave. *)
let bind (opts : Exec_opts.t) cfg cloud =
  if opts.batch < 1 then invalid_arg "Dist_eval.bind: batch must be >= 1";
  let start = Unix.gettimeofday () in
  let obs = opts.obs in
  let previous_sigpipe =
    try Some (Sys.signal Sys.sigpipe Sys.Signal_ignore) with Invalid_argument _ -> None
  in
  let restore_sigpipe () =
    match previous_sigpipe with
    | Some h -> ( try Sys.set_signal Sys.sigpipe h with Invalid_argument _ -> ())
    | None -> ()
  in
  (* Coordinator-side transform tables, built before any worker process is
     spawned: the coordinator itself only reads/writes ciphertexts, but
     [Gates.constant] and the tests touch the evaluation pipeline, and the
     precompute must not race anything. *)
  Params.precompute cloud.Gates.cloud_params;
  (* Ship the keyset once: serialize it up front and write the one blob
     into every worker's frame, behind that worker's own prefix. *)
  let keyset_blob =
    let buf = Buffer.create (1 lsl 20) in
    Gates.write_cloud_keyset buf cloud;
    Buffer.to_bytes buf
  in
  let members = Array.init cfg.workers (fun i -> spawn_worker ~index:i) in
  let wtracks =
    Array.init cfg.workers (fun i ->
        Trace.external_track obs ~name:(Printf.sprintf "worker %d" i))
  in
  let st =
    {
      cfg;
      lwe_n = cloud.Gates.cloud_params.Params.lwe.Params.n;
      cap = opts.batch;
      members;
      obs;
      wtracks;
      next_req = 0;
      requests_sent = 0;
      retries = 0;
      reassignments = 0;
      corrupt_frames = 0;
      heartbeat_misses = 0;
      lost = 0;
      bytes_out = 0;
      bytes_in = 0;
      t_dispatch = 0.0;
      t_transfer = 0.0;
      t_compute = 0.0;
    }
  in
  (try
     (* hello: worker identity + fault schedule + the cloud keyset *)
     Array.iter
       (fun w ->
         let faults = List.filter (fun f -> f.victim = w.w_index) cfg.faults in
         let prefix = hello_prefix ~index:w.w_index ~obs ~faults in
         try
           let n = Framing.write_frame_parts w.fd [ prefix; keyset_blob ] in
           st.bytes_out <- st.bytes_out + n
         with Framing.Frame_closed ->
           st.lost <- st.lost + 1;
           kill_worker w)
       members;
     (* DRDY barrier: every worker parses the keyset (in parallel) and
        acknowledges.  A spawned binary that is not actually a worker —
        the host forgot to call [worker_entry] — answers with garbage or
        silence and is culled here, before any gate is risked on it. *)
     let ready_deadline = Unix.gettimeofday () +. Float.max 60.0 cfg.request_timeout in
     Array.iter
       (fun w ->
         if w.alive then
         match Framing.read_frame ~deadline:ready_deadline w.fd with
         | payload when String.length payload >= 4 && String.sub payload 0 4 = "DRDY" ->
           st.bytes_in <- st.bytes_in + String.length payload + 12
         | _ | (exception Framing.Frame_closed) | (exception Framing.Frame_timeout)
         | (exception Wire.Corrupt _) ->
           st.lost <- st.lost + 1;
           kill_worker w)
       members;
     if live_workers st = [] then
       failwith
         "Dist_eval: no worker came up — does the host executable call \
          Dist_eval.worker_entry at the start of main?"
   with exn ->
     shutdown members;
     restore_sigpipe ();
     raise exn);
  let startup_time = Unix.gettimeofday () -. start in
  (* Wire traffic and fault handling of one wave, as deltas.  The crypto
     counters are Wave.drive's; the workers ship only their shard spans. *)
  let snapshot () =
    [ ("bytes_to_workers", st.bytes_out); ("bytes_from_workers", st.bytes_in);
      ("retries", st.retries); ("reassignments", st.reassignments);
      ("corrupt_frames", st.corrupt_frames); ("heartbeat_misses", st.heartbeat_misses) ]
  in
  let last = ref (snapshot ()) in
  {
    Wave.run_wave =
      (fun jobs ->
        try dispatch st jobs
        with All_workers_lost -> failwith "Dist_eval: all workers lost (crashed or unresponsive)");
    capacity = (fun () -> List.length (live_workers st) * opts.batch);
    workers = cfg.workers;
    track = "coordinator";
    probe =
      (fun tr ->
        let now = snapshot () in
        List.iter2
          (fun (name, v1) (_, v0) -> Trace.counter tr ~name (float_of_int (v1 - v0)))
          now !last;
        last := now);
    finish =
      (fun ~start (ws : Wave.stats) ->
        {
          workers_started = cfg.workers;
          workers_lost = st.lost;
          bootstraps_executed = ws.Wave.bootstraps;
          nots_executed = ws.Wave.nots;
          requests_sent = st.requests_sent;
          retries = st.retries;
          reassignments = st.reassignments;
          corrupt_frames = st.corrupt_frames;
          heartbeat_misses = st.heartbeat_misses;
          keyset_bytes = Bytes.length keyset_blob;
          bytes_to_workers = st.bytes_out;
          bytes_from_workers = st.bytes_in;
          startup_time;
          dispatch_time = st.t_dispatch;
          transfer_time = st.t_transfer;
          compute_time = st.t_compute;
          wave_wall = ws.Wave.wave_wall;
          wave_width = ws.Wave.wave_width;
          wall_time = Unix.gettimeofday () -. start;
        });
    release =
      (fun () ->
        shutdown members;
        restore_sigpipe ());
  }

let pp_stats fmt s =
  Format.fprintf fmt
    "workers=%d (%d lost) bootstraps=%d nots=%d requests=%d retries=%d reassignments=%d \
     corrupt=%d hb-misses=%d wall=%.3fs dispatch=%.3fs transfer=%.3fs compute=%.3fs \
     sent=%dB recv=%dB"
    s.workers_started s.workers_lost s.bootstraps_executed s.nots_executed s.requests_sent
    s.retries s.reassignments s.corrupt_frames s.heartbeat_misses s.wall_time
    s.dispatch_time s.transfer_time s.compute_time s.bytes_to_workers s.bytes_from_workers
