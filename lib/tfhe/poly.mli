(** Polynomials modulo Xᴺ + 1.

    Two flavours share the [int array] representation: torus polynomials
    (coefficients are {!Torus.t}) and integer polynomials (small signed
    coefficients, e.g. gadget digits or binary key polynomials). *)

type torus_poly = int array
(** Coefficients are torus elements, length N. *)

type int_poly = int array
(** Coefficients are small signed integers, length N. *)

val zero : int -> torus_poly
(** The zero polynomial of the given degree bound. *)

val add : torus_poly -> torus_poly -> torus_poly
(** Coefficient-wise torus addition. *)

val add_to : torus_poly -> torus_poly -> unit
(** [add_to dst src] accumulates [src] into [dst] in place. *)

val sub : torus_poly -> torus_poly -> torus_poly
(** Coefficient-wise torus subtraction. *)

val sub_to : torus_poly -> torus_poly -> unit
(** [sub_to dst src] subtracts [src] from [dst] in place. *)

val neg : torus_poly -> torus_poly
(** Coefficient-wise torus negation. *)

val mul_by_xai : int -> torus_poly -> torus_poly
(** [mul_by_xai a p] is [X^a · p] in 𝕋[X]/(Xᴺ+1), with [0 ≤ a < 2N]
    (exponents in [N, 2N) flip signs — the negacyclic wrap used by blind
    rotation).  [a = 0] short-circuits to a plain copy. *)

val mul_by_xai_into : torus_poly -> int -> torus_poly -> unit
(** [mul_by_xai_into dst a p] writes [X^a · p] into [dst].  [dst] must have
    the length of [p] and must not alias it (the rotation reads ahead of its
    writes).  Raises [Invalid_argument] otherwise. *)

val mul_by_xai_minus_one : int -> torus_poly -> torus_poly
(** [(X^a − 1) · p], the CMux rotation difference, same domain for [a]. *)

val mul_by_xai_minus_one_into : torus_poly -> int -> torus_poly -> unit
(** [mul_by_xai_minus_one_into dst a p] writes [(X^a − 1) · p] into [dst] in
    one fused pass (no staging rotation buffer).  Same aliasing and length
    requirements as {!mul_by_xai_into}. *)

val mul_int_torus : int_poly -> torus_poly -> torus_poly
(** Negacyclic product of an integer polynomial with a torus polynomial via
    the FFT path.  Exact as long as coefficients stay within double
    precision (true for gadget digits against 32-bit torus values). *)

val mul_int_torus_naive : int_poly -> torus_poly -> torus_poly
(** Schoolbook reference for {!mul_int_torus} (tests only). *)

val to_floats : centred:bool -> int array -> float array
(** Lift coefficients to floats; [centred] interprets them as torus values
    (centred 32-bit) rather than plain signed integers. *)

val to_floats_into : centred:bool -> float array -> int array -> unit
(** In-place variant of {!to_floats}: fills the first argument.  Lengths
    must match. *)

val of_floats : float array -> torus_poly
(** Round real coefficients back into torus elements (modulo 2³²). *)

val of_floats_into : torus_poly -> float array -> unit
(** In-place variant of {!of_floats}: fills the first argument.  Lengths
    must match. *)
