(** Exact negacyclic polynomial products: ℤ[X]/(Xᴺ + 1) via a double-prime
    NTT with CRT recombination.

    The integer analogue of {!Negacyclic}: same [precompute] /
    [spectrum] / allocation-free [_into] shape, same destructive-inverse
    contract — but every product is {e exact} as long as the true result
    coefficients stay within ±{!modulus}/2 (≈ ±2⁵⁸·⁸), which the TFHE
    gadget bounds guarantee with > 2⁸ headroom at default-128.  Exactness
    makes blind rotation bit-identical across machines and across the
    scalar/batched/SoA paths by construction.

    Two ~30-bit primes (998244353 and 1004535809, both with primitive root
    3) are used instead of one 64-bit prime so every butterfly product and
    CRT intermediate fits OCaml's 63-bit native int — no Int64 boxing, no
    multiply-high emulation.  The trade-off (two transforms per direction
    versus one) is discussed in docs/perf.md.

    The transform loops contain no data-dependent branch and no division.
    Each multiplication by a table constant w ∈ \[0, p) (twiddle, ψʲ,
    N⁻¹·ψ⁻ʲ, p1⁻¹ mod p2) is a Shoup multiplication with the companion
    w' = ⌊w·2³¹/p⌋ stored in the tables: for x < 2³¹,
    [x*w - ((x*w') lsr 31) * p] lies in \[0, 2p) with both products below
    2⁶².  Every conditional subtraction is a sign mask,
    [r + ((r asr 62) land p)] for r ∈ \[−p, p).  The x < 2³¹ precondition
    holds because residues are kept canonical in \[0, p) throughout and
    both primes are below 2³⁰; a spectrum handed to {!backward_into} or
    {!mul_add_into} must therefore hold canonical residues, as every
    function of this module produces.

    The twiddle/root table cache is domain-safe: lookups never lock, and
    {!precompute} fills it for a ring degree up front so worker domains
    running transforms concurrently never build tables mid-flight. *)

val p1 : int
val p2 : int

val modulus : int
(** p1·p2 ≈ 2⁵⁹·⁸ — products are exact while |coefficient| ≤ [modulus]/2. *)

val precompute : int -> unit
(** [precompute n] builds the ψ/twiddle tables for degree-[n] polynomials
    ([n] a power of two, 2 ≤ [n] ≤ 2²⁰ from the primes' 2-adicity).
    Raises [Invalid_argument] otherwise. *)

val tables_ready : int -> bool
(** Whether the tables for ring degree [n] are already cached. *)

val builds : unit -> int
(** Monotone count of table constructions in this process.  A correctly
    precomputed steady state keeps it flat — the regression tests assert a
    parallel run never bumps it. *)

type spectrum = { v1 : int array; v2 : int array }
(** Evaluation-domain representation: residues at the odd 2N-th roots of
    unity modulo each prime ([v1] mod {!p1}, [v2] mod {!p2}), length N,
    each canonical in \[0, p). *)

val spectrum_create : int -> spectrum
val spectrum_copy : spectrum -> spectrum
val spectrum_zero : spectrum -> unit

val forward_into : spectrum -> int array -> unit
(** [forward_into s p] transforms the {e signed} integer polynomial [p]
    (any values; they are reduced per prime) into [s]. *)

val forward : int array -> spectrum

val backward_into : int array -> spectrum -> unit
(** [backward_into p s] writes the signed, centred CRT lift of the inverse
    transform into [p]: exact integer coefficients in
    (−{!modulus}/2, {!modulus}/2].

    {b Destructive:} the inverse runs in place on [s]'s arrays — after the
    call [s] is garbage scratch, exactly like
    {!Negacyclic.backward_into}. *)

val backward : spectrum -> int array
(** Allocating, non-destructive variant. *)

val mul_add_into : spectrum -> spectrum -> spectrum -> unit
(** [mul_add_into acc a b] accumulates the pointwise product [a·b] into
    [acc] modulo each prime. *)

val polymul : int array -> int array -> int array
(** Exact negacyclic product of signed integer polynomials (exact while
    the true result fits in ±{!modulus}/2). *)

val polymul_naive : int array -> int array -> int array
(** Schoolbook reference in native int arithmetic, O(N²); the caller keeps
    inputs small enough that coefficient sums do not overflow 63 bits. *)
