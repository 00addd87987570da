(** Length-prefixed [PTFD] framing over Unix file descriptors.

    The one wire envelope every socket protocol in the tree shares: the
    multiprocess executor's coordinator/worker channels ({!Dist_eval}) and
    the FHE-as-a-service server ([Pytfhe_service]).  A frame is the 4-byte
    magic ["PTFD"], an 8-byte little-endian payload length, then the
    payload; the payload itself conventionally starts with a 4-char
    message magic read through {!Pytfhe_util.Wire}. *)

val frame_magic : string
(** ["PTFD"]. *)

val max_frame : int
(** Upper bound on a payload length (1 GiB); longer announcements are
    rejected as corrupt before any allocation. *)

exception Frame_closed
(** The peer hung up (EOF or EPIPE), possibly mid-frame. *)

exception Frame_timeout
(** The deadline passed with the peer stalled mid-frame. *)

val write_all : Unix.file_descr -> Bytes.t -> int -> int -> unit
(** Write exactly [len] bytes, retrying short writes; raises
    {!Frame_closed} if the peer is gone. *)

val read_exact : deadline:float -> Unix.file_descr -> Bytes.t -> int -> int -> unit
(** Read exactly [len] bytes before [deadline] (absolute seconds;
    [infinity] blocks), or raise {!Frame_timeout} / {!Frame_closed}. *)

val write_frame_parts : Unix.file_descr -> Bytes.t list -> int
(** Frame and send the concatenation of [parts] as one payload, without
    building it: a large part shared by several frames is written as is.
    Returns the bytes put on the wire (12 + total payload length). *)

val write_frame : Unix.file_descr -> Bytes.t -> int
(** [write_frame fd payload] is [write_frame_parts fd [payload]]. *)

val read_frame : ?deadline:float -> Unix.file_descr -> string
(** Receive one frame's payload.  Raises {!Pytfhe_util.Wire.Corrupt} on a
    bad magic or an implausible length, {!Frame_timeout} past the
    deadline, {!Frame_closed} on EOF. *)
