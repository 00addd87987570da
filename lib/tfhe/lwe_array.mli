(** Struct-of-arrays LWE ciphertext storage.

    A wave of [len] LWE samples of dimension [n] stored as one flat
    [(int32, c_layout)] Bigarray of masks ([len × n], row-major) plus a flat
    body vector — the layout the batched kernels stream (key row resident,
    batch dimension unit-stride), nufhe's [LweSampleArray] model.  Torus
    elements are canonical 32-bit values, so the int32 cells round-trip
    exactly and every row op below is ciphertext-bit-exact with the
    corresponding {!Lwe.sample} op.

    The record is exposed so the kernels in {!Bootstrap}, {!Keyswitch} and
    {!Trlwe_array} can walk the flat buffers directly; treat the fields as
    read-only outside this library and go through the accessors. *)

type t = {
  n : int;  (** LWE dimension of every row. *)
  len : int;  (** Number of samples. *)
  masks : Pytfhe_util.Wire.i32_buffer;  (** [len · n] words, row [r] at offset [r·n]. *)
  bodies : Pytfhe_util.Wire.i32_buffer;  (** [len] words. *)
}

val create : n:int -> int -> t
(** [create ~n len] allocates a zero-filled array of [len] samples of
    dimension [n ≥ 1].  Raises [Invalid_argument] on a bad shape. *)

val grow : t -> int -> t
(** [grow t len]: a fresh array of [len] rows whose first [length t] rows
    copy [t]'s; the rest hold unspecified words until written, and a large
    array's spare rows are not touched.  For a table filled row by row.
    Raises [Invalid_argument] when [len < length t]. *)

val length : t -> int
val dim : t -> int

val slice : t -> pos:int -> len:int -> t
(** O(1) non-copying view of rows [pos, pos+len): the slice aliases the
    parent's storage, so writes through either are visible in both.  Raises
    [Invalid_argument] when the range is out of bounds. *)

val get : t -> int -> Lwe.sample
(** Materialize row [r] as a record (allocates). *)

val set : t -> int -> Lwe.sample -> unit
(** Store a record into row [r].  Raises [Invalid_argument] on a dimension
    mismatch or row out of bounds. *)

val set_trivial : t -> int -> Torus.t -> unit
(** Row [r] ← the noiseless trivial encryption (zero mask, body [mu]). *)

val blit : src:t -> src_pos:int -> dst:t -> dst_pos:int -> len:int -> unit
(** Copy [len] whole rows: one row cell by cell without allocating, more
    as two flat Bigarray blits.  Raises [Invalid_argument] on dimension
    mismatch or out-of-bounds ranges. *)

val of_samples : n:int -> Lwe.sample array -> t
val to_samples : t -> Lwe.sample array

val mask : t -> int -> int -> Torus.t
(** [mask t r i] — unchecked hot-path read of mask coefficient [i] of row
    [r]. *)

val body : t -> int -> Torus.t
(** [body t r] — unchecked hot-path read of row [r]'s body. *)

(** {2 Row ops}

    They read every source element before writing the destination
    element, so the destination row may alias a source row (same row of
    the same array, or overlapping slices).  {!add_into} allocates
    nothing; the others allocate nothing but their term list.  Raise
    [Invalid_argument] on a dimension mismatch or a row out of bounds. *)

val affine_into : dst:t -> drow:int -> Torus.t -> (int * t * int) list -> unit
(** [affine_into ~dst ~drow c terms]: [dst.(drow) ← (0, c) + Σ w·src.(row)]
    over the [(w, src, row)] of [terms] — every linear map the executors
    apply to rows.  Torus arithmetic is exact mod 2³², so the sum lands on
    the same words however it is grouped. *)

val add_into : dst:t -> drow:int -> a:t -> arow:int -> b:t -> brow:int -> unit
(** [dst.(drow) ← a.(arow) + b.(brow)], the row analogue of {!Lwe.add}. *)

val neg_into : dst:t -> drow:int -> a:t -> arow:int -> unit
(** [dst.(drow) ← −a.(arow)], the row analogue of {!Lwe.neg}: the
    noiseless NOT. *)

val unsafe_set32 : Pytfhe_util.Wire.i32_buffer -> int -> Torus.t -> unit
(** Unchecked canonical-torus write of one flat cell; allocation-free in
    native code.  For the batched kernels only. *)

(** {2 Wire format}

    Magic ["LARR"], dimension, length, then the two flat i32 blocks
    ({!Pytfhe_util.Wire.write_i32_bigarray}) — a whole shard of ciphertexts
    as one bounds-checked blit instead of per-sample framing. *)

val write : Pytfhe_util.Wire.writer -> t -> unit

val read : Pytfhe_util.Wire.reader -> t
(** Raises [Wire.Corrupt] on a bad magic, implausible dimensions, a block
    length that disagrees with the header, or a truncated payload. *)
