(** LWE key switching.

    After blind rotation and sample extraction, ciphertexts live under the
    large extracted key (dimension k·N); the key-switch brings them back to
    the small in/out key (dimension n) so gates compose.

    The table holds only the entries the key switch reads — digit values
    u = 1 … base−1; a zero digit subtracts nothing — as one contiguous
    flat array (entry (i, j, u) at stride out_n+1) rather than nested
    per-sample records, so the accumulation loop streams memory instead of
    chasing pointers.  The wire block is that array. *)

type key
(** Key-switching material from an input key to an output key. *)

val key_gen :
  Pytfhe_util.Rng.t -> Params.t -> in_key:Lwe.key -> out_key:Lwe.key -> key
(** Encrypt every input key bit at every decomposition position and every
    nonzero digit value under the output key. *)

val apply_batch_rows_into : key -> src:Lwe_array.t -> dst:Lwe_array.t -> int
(** The key switch, by loop interchange: re-encrypt every row of [src]
    (dimension in_n, under the input key) into the same-index row of [dst]
    (dimension out_n, length ≥ length of [src], under the output key).
    The (i, j) digit blocks of the table are the outer loops and the rows
    the inner one, so each (base−1) × (out_n+1) block is streamed from
    memory once per batch, and each row update is a unit-stride run.  A
    row's result does not depend on the other rows.  Returns the blocks
    actually read (those with a nonzero digit somewhere in the batch) in
    units of {!block_bytes}.  Raises [Invalid_argument] on shape
    mismatches. *)

val apply : key -> Lwe.sample -> Lwe.sample
(** Re-encrypt one sample from the input key to the output key: the same
    digit loop as {!apply_batch_rows_into}, run on the record's own arrays,
    so it allocates only its result.  Raises [Invalid_argument] when the
    input dimension does not match the key. *)

val block_bytes : Params.t -> int
(** Bytes of one (i, j) digit block of the parameter set's table — the
    unit the {!apply_batch_rows_into} block count is measured in. *)

val table_bytes : Params.t -> int
(** Bytes of the parameter set's key-switch table, kN·t·(base−1)·(n+1)
    torus words of 32 bits: the payload of its wire block, part of the
    public "cloud key" the client ships to the server. *)

val write : Pytfhe_util.Wire.writer -> key -> unit
(** Magic ["KSWK"], then the flat table as one u32 block. *)

val read : Params.t -> Pytfhe_util.Wire.reader -> key
(** Raises [Wire.Corrupt] unless the block has exactly the length the
    parameter set fixes; the length is checked against the bytes left
    before anything is allocated, so memory stays bounded by what was
    sent. *)
