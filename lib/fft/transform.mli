(** Transform selection and dispatch.

    TFHE's polynomial products run either through the double-precision
    complex FFT ({!Negacyclic} — fast, machine-dependent rounding) or the
    exact double-prime integer NTT ({!Ntt} — bit-reproducible).  The choice
    is a per-parameter-set {!kind}; evaluation-domain values are the
    {!domain} sum so the layers above (TGSW keys, workspaces)
    carry one type regardless of the backend and dispatch with a single
    constructor match. *)

type kind = Fft | Ntt

type domain = Dfft of Negacyclic.spectrum | Dntt of Ntt.spectrum
(** One transformed polynomial, in whichever evaluation domain the
    parameter set selected. *)

val kind_name : kind -> string
(** ["fft"] / ["ntt"] — the CLI and wire spelling. *)

val kind_of_name : string -> kind option

val kind_code : kind -> int
(** Stable one-byte wire encoding: 0 = FFT, 1 = NTT. *)

val kind_of_code : int -> kind option

val precompute : kind -> int -> unit
(** Build the selected backend's tables for a ring degree, before worker
    domains or processes run transforms concurrently (see
    {!Negacyclic.precompute} / {!Ntt.precompute}). *)

val tables_ready : kind -> int -> bool

val create : kind -> int -> domain
(** A zeroed evaluation-domain value for degree-[n] polynomials. *)

val copy : domain -> domain
val zero : domain -> unit

val kind_of : domain -> kind

val forward_signed : kind -> int array -> domain
(** Allocating forward transform of a signed integer polynomial (gadget
    digits or centred torus words); the key-generation entry point. *)

val backward_signed : domain -> int array
(** Non-destructive inverse of {!forward_signed}: the FFT result rounded
    to the nearest integer, or the NTT's exact centred lift. *)

val mul_add_into : domain -> domain -> domain -> unit
(** Pointwise fused multiply-accumulate; raises [Invalid_argument] when
    the three domains do not share a backend. *)
