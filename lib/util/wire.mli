(** Minimal binary serialization: length-prefixed, little-endian, with
    per-structure magic tags.  Every persistent artifact of the framework
    (keys, ciphertexts, programs) goes through this module so formats stay
    consistent and versioned. *)

type writer = Buffer.t

type reader
(** A cursor over an immutable byte string. *)

exception Corrupt of string
(** Raised by any read that fails validation. *)

val reader_of_string : string -> reader
val reader_of_bytes : bytes -> reader

val remaining : reader -> int
(** Bytes left to read. *)

val write_magic : writer -> string -> unit
(** Emit a 4-byte structure tag. *)

val read_magic : reader -> string -> unit
(** Consume and check a tag; raises {!Corrupt} on mismatch. *)

val write_u8 : writer -> int -> unit
val read_u8 : reader -> int

val write_i64 : writer -> int -> unit
(** Full OCaml int as a little-endian 64-bit value. *)

val read_i64 : reader -> int

val write_u32 : writer -> int -> unit
(** Lower 32 bits only — the torus element representation. *)

val read_u32 : reader -> int

val write_f64 : writer -> float -> unit
val read_f64 : reader -> float

val write_bool : writer -> bool -> unit
val read_bool : reader -> bool

val write_string : writer -> string -> unit
val read_string : reader -> string

val write_u32_array : writer -> int array -> unit
(** Length-prefixed array of 32-bit values (torus polynomials, LWE masks,
    binary key bits). *)

val read_u32_array : reader -> int array

val read_block_length : reader -> int list -> int
(** The word count of a block written by {!write_u32_array} whose shape
    the reader already knows.  Raises {!Corrupt} unless it equals the
    product of the dimensions — checked without overflow — and fits in the
    bytes left, so nothing is allocated from a hostile header. *)

val read_u32_into : reader -> int array -> unit
(** Fill the whole array with the next u32 words; one bounds check. *)

val write_array : writer -> (writer -> 'a -> unit) -> 'a array -> unit
val read_array : reader -> (reader -> 'a) -> 'a array

type i32_buffer = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t
(** The flat storage of the struct-of-arrays ciphertext containers. *)

val write_i32_bigarray : writer -> i32_buffer -> unit
(** Length-prefixed flat block of little-endian 32-bit words — the bulk
    payload of array ciphertext frames.  One staging copy, no per-element
    framing. *)

val read_i32_bigarray_into : reader -> i32_buffer -> unit
(** Fill the destination buffer from a block written by
    {!write_i32_bigarray}.  Raises {!Corrupt} when the stored element count
    does not equal the destination size or the payload is truncated; the
    bounds are checked once for the whole block. *)

val to_file : string -> writer -> unit
(** Write the buffer to a file atomically enough for this tool (temp name +
    rename). *)

val of_file : string -> reader
