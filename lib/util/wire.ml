type writer = Buffer.t

type reader = { data : string; mutable pos : int }

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

let reader_of_string data = { data; pos = 0 }
let reader_of_bytes b = reader_of_string (Bytes.to_string b)

let remaining r = String.length r.data - r.pos

let need r n = if remaining r < n then corrupt "truncated input (need %d bytes at %d)" n r.pos

let write_u8 buf v = Buffer.add_uint8 buf (v land 0xFF)

let read_u8 r =
  need r 1;
  let v = Char.code r.data.[r.pos] in
  r.pos <- r.pos + 1;
  v

let write_i64 buf v = Buffer.add_int64_le buf (Int64.of_int v)

let read_i64 r =
  need r 8;
  let v = Int64.to_int (String.get_int64_le r.data r.pos) in
  r.pos <- r.pos + 8;
  v

let write_u32 buf v = Buffer.add_int32_le buf (Int32.of_int v)

let read_u32 r =
  need r 4;
  let v = Int32.to_int (String.get_int32_le r.data r.pos) land 0xFFFFFFFF in
  r.pos <- r.pos + 4;
  v

let write_f64 buf v = Buffer.add_int64_le buf (Int64.bits_of_float v)

let read_f64 r =
  need r 8;
  let v = Int64.float_of_bits (String.get_int64_le r.data r.pos) in
  r.pos <- r.pos + 8;
  v

let write_bool buf b = write_u8 buf (Bool.to_int b)

let read_bool r =
  match read_u8 r with
  | 0 -> false
  | 1 -> true
  | v -> corrupt "invalid boolean byte %d" v

let write_magic buf tag =
  if String.length tag <> 4 then invalid_arg "Wire.write_magic: tag must be 4 bytes";
  Buffer.add_string buf tag

let read_magic r tag =
  need r 4;
  let got = String.sub r.data r.pos 4 in
  r.pos <- r.pos + 4;
  if got <> tag then corrupt "bad magic: expected %S, got %S" tag got

let write_length buf n =
  if n < 0 then invalid_arg "Wire: negative length";
  write_i64 buf n

let read_length r =
  let n = read_i64 r in
  if n < 0 || n > remaining r then corrupt "implausible length %d" n;
  n

let write_string buf s =
  write_length buf (String.length s);
  Buffer.add_string buf s

let read_string r =
  let n = read_length r in
  let s = String.sub r.data r.pos n in
  r.pos <- r.pos + n;
  s

let write_u32_array buf a =
  write_length buf (Array.length a);
  Array.iter (write_u32 buf) a

let read_u32_array r =
  let n = read_length r in
  Array.init n (fun _ -> read_u32 r)

(* The length of a u32 block the reader's parameters already shape: it
   must equal the product of [dims], checked by exact division so that no
   hostile dimension can overflow it, and fit in the bytes left. *)
let read_block_length r dims =
  let n = read_i64 r in
  let rest = List.fold_left (fun acc d -> if d > 0 && acc mod d = 0 then acc / d else 0) n dims in
  if rest <> 1 || n > remaining r / 4 then corrupt "block of %d words does not fit its shape" n;
  n

let read_u32_into r dst =
  let n = Array.length dst in
  need r (4 * n);
  for i = 0 to n - 1 do
    Array.unsafe_set dst i (Int32.to_int (String.get_int32_le r.data (r.pos + (4 * i))) land 0xFFFFFFFF)
  done;
  r.pos <- r.pos + (4 * n)

type i32_buffer = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

(* Flat little-endian i32 blocks, the payload of the struct-of-arrays
   ciphertext frames: one length header (element count), then n raw 4-byte
   words.  Writing stages through one Bytes chunk so Buffer growth is
   amortized; reading does a single bounds check up front instead of one
   per element. *)
let write_i32_bigarray buf (ba : i32_buffer) =
  let n = Bigarray.Array1.dim ba in
  write_length buf n;
  let chunk = Bytes.create (4 * n) in
  for i = 0 to n - 1 do
    Bytes.set_int32_le chunk (4 * i) (Bigarray.Array1.unsafe_get ba i)
  done;
  Buffer.add_bytes buf chunk

let read_i32_bigarray_into r (ba : i32_buffer) =
  let n = read_length r in
  if n <> Bigarray.Array1.dim ba then
    corrupt "i32 block length %d does not match destination %d" n (Bigarray.Array1.dim ba);
  need r (4 * n);
  for i = 0 to n - 1 do
    Bigarray.Array1.unsafe_set ba i (String.get_int32_le r.data (r.pos + (4 * i)))
  done;
  r.pos <- r.pos + (4 * n)

let write_array buf f a =
  write_length buf (Array.length a);
  Array.iter (f buf) a

let read_array r f =
  let n = read_length r in
  Array.init n (fun _ -> f r)

let to_file path buf =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> Buffer.output_buffer oc buf);
  Sys.rename tmp path

let of_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let len = in_channel_length ic in
      reader_of_string (really_input_string ic len))
