(* Client-side bindings for the service protocol.  Small and synchronous:
   every call sends one frame; [await] reads frames until the wanted
   request id's reply appears, stashing out-of-order replies (the server
   completes requests in scheduler order, not submission order). *)

module Wire = Pytfhe_util.Wire
module Framing = Pytfhe_backend.Framing
open Pytfhe_tfhe

type outcome =
  | Done of {
      outputs : Lwe.sample array;
      queue_delay : float;
      exec_wall : float;
      bootstraps : int;
    }
  | Failed of { code : Service.error_code; message : string }

type t = {
  fd : Unix.file_descr;
  mutable next_req : int;
  completed : (int, outcome) Hashtbl.t;
  mutable closed : bool;
}

let connect ?(host = "127.0.0.1") ~port () =
  (* A server hanging up mid-conversation must surface as EPIPE (caught
     around every send) rather than kill the client process. *)
  (try ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore) with Invalid_argument _ -> ());
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port))
   with e -> (try Unix.close fd with Unix.Unix_error _ -> ()); raise e);
  (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
  { fd; next_req = 1; completed = Hashtbl.create 8; closed = false }

let send t payload = ignore (Framing.write_frame t.fd payload)

let send_raw t bytes = Framing.write_all t.fd bytes 0 (Bytes.length bytes)

let close t =
  if not t.closed then begin
    t.closed <- true;
    (try
       let buf = Buffer.create 8 in
       Wire.write_magic buf "SBYE";
       send t (Buffer.to_bytes buf)
     with Framing.Frame_closed | Unix.Unix_error _ -> ());
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

(* Connection-scope errors (req id 0) surface as exceptions: protocol
   mistakes as Wire.Corrupt, operational failures as Failure. *)
let conn_error code message =
  match code with
  | Service.Corrupt | Service.Unknown | Service.Mismatch -> raise (Wire.Corrupt message)
  | Service.Evicted | Service.Busy | Service.Internal ->
    failwith (Service.string_of_error_code code ^ ": " ^ message)

let read_reply_frame ?deadline t =
  let payload = Framing.read_frame ?deadline t.fd in
  if String.length payload < 4 then raise (Wire.Corrupt "Service_client: short payload");
  (String.sub payload 0 4, payload)

(* Stash a request-scoped frame (SREP or request-level SERR) in the
   completed table; connection-scope SERR raises; anything else is a
   protocol violation. *)
let stash t magic r =
  match magic with
  | "SREP" ->
    Wire.read_magic r "SREP";
    let req = Wire.read_i64 r in
    let queue_delay = Wire.read_f64 r in
    let exec_wall = Wire.read_f64 r in
    let bootstraps = Wire.read_i64 r in
    let outputs = Wire.read_array r Lwe.read_sample in
    Hashtbl.replace t.completed req (Done { outputs; queue_delay; exec_wall; bootstraps })
  | "SERR" ->
    Wire.read_magic r "SERR";
    let req = Wire.read_i64 r in
    let code = Service.error_code_of_int (Wire.read_u8 r) in
    let message = Wire.read_string r in
    if req = 0 then conn_error code message
    else Hashtbl.replace t.completed req (Failed { code; message })
  | m -> raise (Wire.Corrupt ("Service_client: unexpected reply magic " ^ m))

(* Pump frames until a frame of [want]'s magic arrives; request-scoped
   frames read along the way are stashed. *)
let rec rpc ?deadline t want =
  let magic, payload = read_reply_frame ?deadline t in
  let r = Wire.reader_of_string payload in
  if magic = want then r
  else begin
    stash t magic r;
    rpc ?deadline t want
  end

let rpc_ack ?deadline t =
  let r = rpc ?deadline t "SACK" in
  Wire.read_magic r "SACK";
  let value = Wire.read_i64 r in
  let info = Wire.read_string r in
  (value, info)

let register t ~client_id ck =
  let buf = Buffer.create 65536 in
  Wire.write_magic buf "SREG";
  Wire.write_string buf client_id;
  Gates.write_cloud_keyset buf ck;
  send t (Buffer.to_bytes buf);
  ignore (rpc_ack t)

let open_session t ~client_id params =
  let buf = Buffer.create 256 in
  Wire.write_magic buf "SSES";
  Wire.write_string buf client_id;
  Params.write buf params;
  send t (Buffer.to_bytes buf);
  let sid, _ = rpc_ack t in
  sid

let submit t ~session ~name ~program ~inputs =
  let req = t.next_req in
  t.next_req <- req + 1;
  let buf = Buffer.create (Bytes.length program + 4096) in
  Wire.write_magic buf "SREQ";
  Wire.write_i64 buf session;
  Wire.write_i64 buf req;
  Wire.write_string buf name;
  Wire.write_string buf (Bytes.to_string program);
  Wire.write_array buf Lwe.write_sample inputs;
  send t (Buffer.to_bytes buf);
  req

let await ?timeout t req =
  let deadline = Option.map (fun s -> Unix.gettimeofday () +. s) timeout in
  let rec loop () =
    match Hashtbl.find_opt t.completed req with
    | Some outcome ->
      Hashtbl.remove t.completed req;
      outcome
    | None ->
      let magic, payload = read_reply_frame ?deadline t in
      stash t magic (Wire.reader_of_string payload);
      loop ()
  in
  loop ()

let evict t ~client_id =
  let buf = Buffer.create 64 in
  Wire.write_magic buf "SEVI";
  Wire.write_string buf client_id;
  send t (Buffer.to_bytes buf);
  let value, _ = rpc_ack t in
  value = 1

let stats t =
  let buf = Buffer.create 8 in
  Wire.write_magic buf "SSTA";
  send t (Buffer.to_bytes buf);
  let r = rpc t "SSTR" in
  Wire.read_magic r "SSTR";
  Service.read_stats r

let shutdown t =
  let buf = Buffer.create 8 in
  Wire.write_magic buf "SHUT";
  send t (Buffer.to_bytes buf);
  ignore (rpc_ack t)
