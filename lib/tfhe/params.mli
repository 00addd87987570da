(** TFHE parameter sets.

    The [default_128] set reproduces the gate-bootstrapping parameters of the
    reference TFHE library (the set the paper adopts in §II-D, targeting
    λ = 128 bits).  The [test] set is *insecure* but functionally correct and
    about two orders of magnitude faster; the unit-test suite uses it so that
    every bootstrapped gate can be exercised in milliseconds. *)

type lwe = {
  n : int;  (** LWE dimension of the in/out ciphertexts. *)
  lwe_stdev : float;  (** Fresh-encryption noise standard deviation. *)
}

type tlwe = {
  ring_n : int;  (** Polynomial degree N (power of two). *)
  k : int;  (** Number of mask polynomials. *)
  tlwe_stdev : float;  (** Ring encryption noise standard deviation. *)
}

type tgsw = {
  l : int;  (** Gadget decomposition length. *)
  bg_bit : int;  (** log₂ of the gadget base Bg. *)
}

type keyswitch = {
  t : int;  (** Decomposition length of the key switch. *)
  base_bit : int;  (** log₂ of the key-switch base. *)
}

type t = {
  name : string;
  lwe : lwe;
  tlwe : tlwe;
  tgsw : tgsw;
  ks : keyswitch;
  transform : Pytfhe_fft.Transform.kind;
      (** Which polynomial transform the bootstrap runs on: the
          double-precision complex FFT (fast, machine-dependent rounding)
          or the exact double-prime NTT (bit-reproducible). *)
}

val default_128 : t
(** n = 630, N = 1024, k = 1, l = 3, Bg = 2⁷, ks: t = 8, base = 2²,
    σ_lwe = 2⁻¹⁵, σ_bk = 2⁻²⁵ — the TFHE-library defaults at λ = 128. *)

val test : t
(** n = 64, N = 256, l = 3, Bg = 2⁶, low noise.  Fast and functionally
    correct; provides no security whatsoever. *)

val extracted_n : t -> int
(** Dimension k·N of LWE samples extracted from ring ciphertexts. *)

val bg : t -> int
(** The gadget base Bg = 2^bg_bit. *)

val ks_base : t -> int
(** The key-switch base 2^base_bit. *)

val mu : t -> Torus.t
(** The gate-bootstrapping message amplitude 1/8. *)

val with_transform : t -> Pytfhe_fft.Transform.kind -> t
(** The same parameter set running on the other transform backend.
    Combine with {!validate}: the NTT rejects gadget bounds that exceed
    its modulus headroom. *)

val precompute : t -> unit
(** Build the selected transform's tables for this ring degree.  Executors
    call it at startup, before worker domains or processes run transforms
    concurrently — see {!Pytfhe_fft.Transform.precompute}. *)

val pp : Format.formatter -> t -> unit
(** Human-readable rendering of a parameter set. *)

val write : Pytfhe_util.Wire.writer -> t -> unit
(** Serialize a parameter set (keys and ciphertexts embed one so loads can
    validate compatibility). *)

val read : Pytfhe_util.Wire.reader -> t
(** Raises {!Pytfhe_util.Wire.Corrupt} on malformed input, including a
    parameter set {!validate} refuses. *)

val equal : t -> t -> bool

val custom :
  ?transform:Pytfhe_fft.Transform.kind ->
  name:string -> n:int -> lwe_stdev:float -> ring_n:int -> k:int -> tlwe_stdev:float ->
  l:int -> bg_bit:int -> ks_t:int -> ks_base_bit:int -> unit -> t
(** Build a custom parameter set ([?transform] defaults to [Fft]); raises
    [Invalid_argument] on structural problems (see {!validate}).  Combine
    with [Noise.check] before use. *)

val validate : t -> (unit, string) result
(** Structural sanity: positive dimensions, power-of-two ring degree,
    decompositions that fit in 32 bits, positive finite noise deviations
    (a NaN one would encrypt without noise), and — on the NTT backend —
    gadget bounds within the CRT modulus headroom. *)
