(** TRLWE (ring) samples: LWE over 𝕋[X]/(Xᴺ+1).

    A sample under key s = (s₁…s_k) (binary polynomials) is
    (a₁…a_k, b) with b = Σ aᵢ·sᵢ + μ + e.  The blind-rotation accumulator of
    bootstrapping lives here. *)

type key = { polys : Poly.int_poly array (** k binary polynomials. *) }

type sample = {
  mask : Poly.torus_poly array;  (** The k mask polynomials a₁…a_k. *)
  body : Poly.torus_poly;  (** The body polynomial b. *)
}

val key_gen : Pytfhe_util.Rng.t -> Params.t -> key
(** Sample k uniform binary polynomials of degree < N. *)

val zero_sample : Pytfhe_util.Rng.t -> Params.t -> key -> sample
(** Fresh encryption of the zero polynomial. *)

val encrypt_poly : Pytfhe_util.Rng.t -> Params.t -> key -> Poly.torus_poly -> sample
(** Fresh encryption of a torus polynomial message. *)

val trivial : Params.t -> Poly.torus_poly -> sample
(** Noiseless sample (0,…,0, μ). *)

val phase : key -> sample -> Poly.torus_poly
(** b − Σ aᵢ·sᵢ. *)

val copy : sample -> sample
(** Deep copy (the bootstrapping accumulator is mutated in place). *)

val add_to : sample -> sample -> unit
(** [add_to dst src] accumulates [src] into [dst] component-wise. *)

val sub_to : sample -> sample -> unit
(** [sub_to dst src] subtracts [src] from [dst] component-wise. *)

val extract_lwe_at : Params.t -> pos:int -> sample -> Lwe.sample
(** Extract coefficient [pos] ∈ [0, N) as an LWE sample of dimension k·N
    under the extracted key {!extract_key}; [pos = 0] is the constant
    coefficient.  The record reference for {!Trlwe_array.extract_row_into},
    which multi-value bootstrapping reads several slots through. *)

val extract_key : key -> Lwe.key
(** The LWE key matching {!extract_lwe_at}: the ring key's
    coefficients. *)

val write_key : Pytfhe_util.Wire.writer -> key -> unit
val read_key : Pytfhe_util.Wire.reader -> key
