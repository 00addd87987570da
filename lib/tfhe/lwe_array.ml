module Wire = Pytfhe_util.Wire

(* Struct-of-arrays LWE ciphertext storage: a wave of [len] samples of
   dimension [n] as one flat int32 Bigarray of masks (row-major, row r at
   offset r·n) plus a flat body vector.  This is the native currency of the
   batched kernels — the interchanged loops sweep the batch dimension at
   unit stride while a bootstrapping/key-switch key row stays resident —
   and of the dist wire, where a whole shard ships as two flat blocks.

   Torus elements are canonical values in [0, 2^32), so the int32 cells
   round-trip exactly: [set32] truncates to 32 bits and [get32] reads them
   back with [land 0xFFFFFFFF].  Every arithmetic op below goes through
   [Torus], so a row op performs the identical operation sequence as the
   corresponding [Lwe.sample] op — the bit-exactness the batched executors
   are tested against. *)

type t = { n : int; len : int; masks : Wire.i32_buffer; bodies : Wire.i32_buffer }

(* In native code both directions are allocation-free: the boxing
   primitives are consumed directly, so the compiler unboxes them. *)
let[@inline] unsafe_get32 (ba : Wire.i32_buffer) i =
  Int32.to_int (Bigarray.Array1.unsafe_get ba i) land 0xFFFFFFFF

let[@inline] unsafe_set32 (ba : Wire.i32_buffer) i v =
  Bigarray.Array1.unsafe_set ba i (Int32.of_int v)

let create ~n len =
  if n < 1 then invalid_arg "Lwe_array.create: dimension must be >= 1";
  if len < 0 then invalid_arg "Lwe_array.create: negative length";
  let masks = Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout (len * n) in
  let bodies = Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout len in
  Bigarray.Array1.fill masks 0l;
  Bigarray.Array1.fill bodies 0l;
  { n; len; masks; bodies }

(* The spare rows are left as the allocator returns them: a large block is
   fresh pages, which take no memory until a row is written. *)
let grow t len =
  if len < t.len then invalid_arg "Lwe_array.grow: fewer rows than the source";
  let masks = Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout (len * t.n) in
  let bodies = Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout len in
  Bigarray.Array1.blit t.masks (Bigarray.Array1.sub masks 0 (t.len * t.n));
  Bigarray.Array1.blit t.bodies (Bigarray.Array1.sub bodies 0 t.len);
  { t with len; masks; bodies }

let length t = t.len
let dim t = t.n

let[@inline] check_row t r who =
  if r < 0 || r >= t.len then invalid_arg (who ^ ": row out of bounds")

(* O(1) non-copying view: the slice aliases the parent's storage, so writes
   through either are visible in both. *)
let slice t ~pos ~len =
  if pos < 0 || len < 0 || pos + len > t.len then invalid_arg "Lwe_array.slice: out of bounds";
  {
    n = t.n;
    len;
    masks = Bigarray.Array1.sub t.masks (pos * t.n) (len * t.n);
    bodies = Bigarray.Array1.sub t.bodies pos len;
  }

let[@inline] mask t r i = unsafe_get32 t.masks ((r * t.n) + i)
let[@inline] body t r = unsafe_get32 t.bodies r

let get t r =
  check_row t r "Lwe_array.get";
  let off = r * t.n in
  { Lwe.a = Array.init t.n (fun i -> unsafe_get32 t.masks (off + i)); b = unsafe_get32 t.bodies r }

let set t r (s : Lwe.sample) =
  check_row t r "Lwe_array.set";
  if Array.length s.Lwe.a <> t.n then invalid_arg "Lwe_array.set: dimension mismatch";
  let off = r * t.n in
  for i = 0 to t.n - 1 do
    unsafe_set32 t.masks (off + i) (Array.unsafe_get s.Lwe.a i)
  done;
  unsafe_set32 t.bodies r s.Lwe.b

let of_samples ~n ss =
  let t = create ~n (Array.length ss) in
  Array.iteri (set t) ss;
  t

let to_samples t = Array.init t.len (get t)

(* Σ w·src.(row) over [terms] at element [i] of the rows (the body at
   i = n), on top of [acc]. *)
let rec sum acc i = function
  | [] -> acc
  | (w, src, row) :: terms ->
    let x =
      if i < src.n then unsafe_get32 src.masks ((row * src.n) + i) else unsafe_get32 src.bodies row
    in
    sum (Torus.add acc (Torus.mul_int w x)) i terms

let rec check_terms dst = function
  | [] -> ()
  | (_, src, row) :: terms ->
    if src.n <> dst.n then invalid_arg "Lwe_array.affine_into: dimension mismatch";
    check_row src row "Lwe_array.affine_into";
    check_terms dst terms

(* Element by element, every source read before the destination element
   is written, so a destination row may alias a source row (including
   through overlapping slices). *)
let affine_into ~dst ~drow c terms =
  check_row dst drow "Lwe_array.affine_into";
  check_terms dst terms;
  let n = dst.n in
  for i = 0 to n - 1 do
    unsafe_set32 dst.masks ((drow * n) + i) (sum Torus.zero i terms)
  done;
  unsafe_set32 dst.bodies drow (sum c n terms)

(* Row-granular addition.  Every element is read from both sources before
   the destination element is written, so a destination row may alias
   either source row (including through overlapping slices). *)
let add_into ~dst ~drow ~a ~arow ~b ~brow =
  let who = "Lwe_array.add_into" in
  if a.n <> dst.n || b.n <> dst.n then invalid_arg (who ^ ": dimension mismatch");
  check_row dst drow who;
  check_row a arow who;
  check_row b brow who;
  let n = dst.n in
  let od = drow * n and oa = arow * n and ob = brow * n in
  for i = 0 to n - 1 do
    unsafe_set32 dst.masks (od + i)
      (Torus.add (unsafe_get32 a.masks (oa + i)) (unsafe_get32 b.masks (ob + i)))
  done;
  unsafe_set32 dst.bodies drow (Torus.add (unsafe_get32 a.bodies arow) (unsafe_get32 b.bodies brow))

let neg_into ~dst ~drow ~a ~arow = affine_into ~dst ~drow Torus.zero [ (-1, a, arow) ]

let set_trivial t r mu =
  check_row t r "Lwe_array.set_trivial";
  let off = r * t.n in
  for i = 0 to t.n - 1 do
    unsafe_set32 t.masks (off + i) 0
  done;
  unsafe_set32 t.bodies r mu

let blit ~src ~src_pos ~dst ~dst_pos ~len =
  if src.n <> dst.n then invalid_arg "Lwe_array.blit: dimension mismatch";
  if len < 0 || src_pos < 0 || dst_pos < 0 || src_pos + len > src.len || dst_pos + len > dst.len
  then invalid_arg "Lwe_array.blit: out of bounds";
  if len = 1 then begin
    (* One row, the executors' common copy, cell by cell: a [sub] view
       costs heap blocks per call. *)
    let n = src.n in
    for i = 0 to n - 1 do
      unsafe_set32 dst.masks ((dst_pos * n) + i) (unsafe_get32 src.masks ((src_pos * n) + i))
    done;
    unsafe_set32 dst.bodies dst_pos (unsafe_get32 src.bodies src_pos)
  end
  else if len > 1 then begin
    Bigarray.Array1.blit
      (Bigarray.Array1.sub src.masks (src_pos * src.n) (len * src.n))
      (Bigarray.Array1.sub dst.masks (dst_pos * dst.n) (len * dst.n));
    Bigarray.Array1.blit
      (Bigarray.Array1.sub src.bodies src_pos len)
      (Bigarray.Array1.sub dst.bodies dst_pos len)
  end

(* Wire frame: header (magic, dimension, length) then the two flat i32
   blocks.  Byte-identical ciphertexts round-trip because the canonical
   torus values are exactly the stored 32-bit words. *)

let max_wire_dim = 1 lsl 24
let max_wire_len = 1 lsl 24

let write buf t =
  Wire.write_magic buf "LARR";
  Wire.write_i64 buf t.n;
  Wire.write_i64 buf t.len;
  Wire.write_i32_bigarray buf t.masks;
  Wire.write_i32_bigarray buf t.bodies

let read r =
  Wire.read_magic r "LARR";
  let n = Wire.read_i64 r in
  let len = Wire.read_i64 r in
  if n < 1 || n > max_wire_dim then
    raise (Wire.Corrupt (Printf.sprintf "Lwe_array: implausible dimension %d" n));
  if len < 0 || len > max_wire_len then
    raise (Wire.Corrupt (Printf.sprintf "Lwe_array: implausible length %d" len));
  (* Both blocks (a length word and 4 bytes a cell each) must be in the
     bytes left before the rows are allocated; n, len ≤ 2^24 keep the
     product far from overflow. *)
  if Wire.remaining r < 16 + (4 * len * (n + 1)) then
    raise (Wire.Corrupt (Printf.sprintf "Lwe_array: %d rows of dimension %d overrun the frame" len n));
  let t = create ~n len in
  Wire.read_i32_bigarray_into r t.masks;
  Wire.read_i32_bigarray_into r t.bodies;
  t
