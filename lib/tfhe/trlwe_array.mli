(** Struct-of-arrays TRLWE accumulator storage for the batched blind
    rotation.

    [cap] accumulators as one flat torus-word array: row [r] holds its k
    mask polynomials then its body polynomial back to back.  The batched
    CMux recurrence keeps one bootstrapping-key entry resident while
    sweeping the batch dimension, so the accumulators must be contiguous —
    the TRLWE analogue of {!Lwe_array}, used as {!Bootstrap.batch}
    scratch.  Unlike {!Lwe_array} the accumulators never cross the wire,
    so the backing store is a plain [int array] (an int32 bigarray access
    costs roughly two int-array accesses even as a raw load, and the
    rotation loops are memory bound).

    The rotations and the extraction match their {!Poly} / {!Tlwe}
    references coefficient for coefficient; the landing
    ({!add_floats_to}, {!add_ints_to}) is the blind rotation's only
    conversion back to the torus. *)

type t

val create : Params.t -> cap:int -> t
(** Zero-filled storage for [cap ≥ 1] accumulators of the parameter set's
    TRLWE shape. *)

val capacity : t -> int

val clear_masks : t -> int -> unit
(** Zero the k mask polynomials of row [r] (the body is left alone — the
    rotation overwrites it). *)

val rotate_body_from : t -> int -> int -> Poly.torus_poly -> unit
(** [rotate_body_from t r a p]: body of row [r] ← [X^a · p], the negacyclic
    rotation of {!Poly.mul_by_xai_into} ([0 ≤ a < 2N]). *)

val rotate_diff_into : t -> row:int -> int -> Tlwe.sample -> unit
(** [rotate_diff_into t ~row a dst]: [dst ← (X^a − 1) · row], every
    component, into the record-shaped workspace scratch the external
    product consumes — {!Poly.mul_by_xai_minus_one_into} against the flat
    row. *)

val add_floats_to : t -> row:int -> comp:int -> float array -> unit
(** Accumulate the rounded torus values (modulo 2³²) of an FFT result into
    component [comp] (k = the body) of row [row]. *)

val add_ints_to : t -> row:int -> comp:int -> int array -> unit
(** Accumulate exact signed integer coefficients (the NTT backward output)
    into component [comp] of row [row] modulo 2³². *)

val extract_row_into : t -> row:int -> pos:int -> Lwe_array.t -> drow:int -> unit
(** Sample-extract coefficient [pos] ([0 ≤ pos < N]) of row [row] into
    row [drow] of an {!Lwe_array} of dimension k·N —
    {!Tlwe.extract_lwe_at} without the record detour. *)
