(* Length-prefixed PTFD framing, shared by every socket protocol in the
   tree: the multiprocess executor's coordinator/worker channels and the
   FHE-as-a-service server.  A frame is 4 bytes of magic, an 8-byte LE
   payload length, then the payload; the payload's own first field is a
   4-char message magic (DHEL, DJOB, SREQ, ...) read through Wire. *)

module Wire = Pytfhe_util.Wire

let frame_magic = "PTFD"
let max_frame = 1 lsl 30

exception Frame_closed
exception Frame_timeout

let rec write_all fd buf pos len =
  if len > 0 then begin
    let n =
      try Unix.write fd buf pos len with
      | Unix.Unix_error (Unix.EINTR, _, _) -> 0
      | Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET | Unix.EBADF), _, _) ->
        raise Frame_closed
    in
    write_all fd buf (pos + n) (len - n)
  end

(* Read exactly [len] bytes, or raise: [Frame_timeout] once [deadline]
   passes (the peer stalled mid-frame), [Frame_closed] on EOF (the peer
   died mid-frame).  [deadline = infinity] blocks indefinitely. *)
let read_exact ~deadline fd bytes off len =
  let off = ref off and remaining = ref len in
  while !remaining > 0 do
    let ready =
      if deadline = infinity then true
      else begin
        let now = Unix.gettimeofday () in
        if now >= deadline then raise Frame_timeout;
        match Unix.select [ fd ] [] [] (Float.min (deadline -. now) 0.5) with
        | [], _, _ -> false
        | _ -> true
      end
    in
    if ready then begin
      let n =
        try Unix.read fd bytes !off !remaining with
        | Unix.Unix_error (Unix.EINTR, _, _) -> -1
        | Unix.Unix_error (Unix.ECONNRESET, _, _) -> 0
      in
      if n = 0 then raise Frame_closed;
      if n > 0 then begin
        off := !off + n;
        remaining := !remaining - n
      end
    end
  done

let write_frame_parts fd parts =
  let len = List.fold_left (fun acc part -> acc + Bytes.length part) 0 parts in
  let header = Bytes.create 12 in
  Bytes.blit_string frame_magic 0 header 0 4;
  Bytes.set_int64_le header 4 (Int64.of_int len);
  write_all fd header 0 12;
  List.iter (fun part -> write_all fd part 0 (Bytes.length part)) parts;
  12 + len

let write_frame fd payload = write_frame_parts fd [ payload ]

let read_frame ?(deadline = infinity) fd =
  let header = Bytes.create 12 in
  read_exact ~deadline fd header 0 12;
  if Bytes.sub_string header 0 4 <> frame_magic then
    raise (Wire.Corrupt "Framing: bad frame magic");
  let len = Int64.to_int (Bytes.get_int64_le header 4) in
  if len < 0 || len > max_frame then
    raise (Wire.Corrupt (Printf.sprintf "Framing: implausible frame length %d" len));
  let payload = Bytes.create len in
  read_exact ~deadline fd payload 0 len;
  Bytes.unsafe_to_string payload
