(** Synchronous client bindings for the {!Service} protocol.

    The tenant-side workflow: {!connect}, {!register} the cloud keyset
    under a client id (once — it persists across connections until
    {!evict}), {!open_session} to pin the params, then
    {!submit}/{!await} programs.  The server may complete requests in
    scheduler order, not submission order; {!await} stashes out-of-order
    replies so any interleaving of submits and awaits works. *)

type t

type outcome =
  | Done of {
      outputs : Pytfhe_tfhe.Lwe.sample array;
      queue_delay : float;  (** Seconds spent in the admission queue. *)
      exec_wall : float;  (** Seconds from admission to reply. *)
      bootstraps : int;  (** Bootstraps/rotations spent on this request. *)
    }
  | Failed of { code : Service.error_code; message : string }

val connect : ?host:string -> port:int -> unit -> t
val close : t -> unit
(** Best-effort [SBYE], then close the socket.  Idempotent. *)

val register : t -> client_id:string -> Pytfhe_tfhe.Gates.cloud_keyset -> unit
(** Register (or replace) the {e cloud} keyset under [client_id].  A
    keyset the server cannot read surfaces here as
    {!Pytfhe_util.Wire.Corrupt}. *)

val open_session : t -> client_id:string -> Pytfhe_tfhe.Params.t -> int
(** Negotiate a session: the server checks [client_id] is registered and
    that the params — transform included — equal the registered keyset's,
    and returns a session id.  Mismatches surface as
    {!Pytfhe_util.Wire.Corrupt}. *)

val submit :
  t -> session:int -> name:string -> program:bytes -> inputs:Pytfhe_tfhe.Lwe.sample array -> int
(** Enqueue a PyTFHE binary with encrypted inputs (by declaration order);
    returns the request id to {!await} on.  Fire-and-forget: admission
    errors arrive as a [Failed] outcome. *)

val await : ?timeout:float -> t -> int -> outcome
(** Block until request [id]'s reply (or failure) arrives.  [timeout] is
    seconds from now; expiry raises
    {!Pytfhe_backend.Framing.Frame_timeout}. *)

val evict : t -> client_id:string -> bool
(** Ask the server to drop the keyset; [true] if it was registered.  The
    server fails that tenant's queued and in-flight requests with
    [Evicted] and invalidates its sessions. *)

val stats : t -> Service.stats
val shutdown : t -> unit
(** Send [SHUT]: the server stops accepting input, drains in-flight work
    and returns from {!Service.serve}. *)

val send_raw : t -> Bytes.t -> unit
(** Write raw bytes to the socket, bypassing the framing layer — the hook
    protocol tests use to deliver corrupt envelopes, truncated frames and
    malformed payloads. *)
