(** TGSW samples, gadget decomposition and the external product.

    A TGSW sample encrypts a small integer m as (k+1)·l TRLWE rows
    Z + m·H, where H is the gadget matrix with entries 1/Bgʲ.  The external
    product TGSW ⊡ TRLWE — the engine of the CMux and hence of blind
    rotation — is evaluated in the transform domain selected by the
    parameter set: the double-precision complex FFT or the exact
    double-prime NTT ({!Pytfhe_fft.Transform}).  This module is the
    dispatch layer — nothing above it branches on the backend.

    {!cmux_rotate_row_into} is the bootstrapped-gate hot path: every buffer
    it touches (decomposition digits, transform staging, spectral
    accumulators and the rotation scratch) is owned by the {!workspace},
    so a steady-state gate performs no ring-sized allocation. *)

type sample = { rows : Tlwe.sample array }
(** (k+1)·l TRLWE rows, row i·l+j carrying m/Bg^{j+1} on component i. *)

type fft_sample = { frows : Pytfhe_fft.Transform.domain array array }
(** A TGSW sample with every row polynomial pre-transformed into the
    parameter set's evaluation domain (FFT spectrum or NTT residues);
    this is how bootstrapping keys are stored. *)

type gadget
(** Precomputed gadget-decomposition constants (offset, Bg/2, digit mask):
    derived once from a parameter set instead of per decomposition call. *)

type workspace
(** Pre-allocated scratch buffers so the external product in the hot
    bootstrapping loop performs no large allocations. *)

val gadget : Params.t -> gadget
(** The decomposition constants of a parameter set. *)

val encrypt_int : Pytfhe_util.Rng.t -> Params.t -> Tlwe.key -> int -> sample
(** Fresh TGSW encryption of a small integer message. *)

val to_fft : Params.t -> sample -> fft_sample
(** Pre-transform all row polynomials with {!forward_torus}. *)

val forward_torus : Params.t -> Poly.torus_poly -> Pytfhe_fft.Transform.domain
(** One torus polynomial, centred, through the parameter set's forward
    transform: how key generation and the key reader both reach the
    evaluation form. *)

val decompose : Params.t -> Tlwe.sample -> Poly.int_poly array
(** Signed gadget decomposition of every component into l digits each in
    [−Bg/2, Bg/2).  Allocating wrapper over the kernel
    {!cmux_rotate_row_into} decomposes with. *)

val workspace_create : Params.t -> workspace
(** Fresh scratch buffers for one evaluation thread.  Also precomputes the
    selected transform's tables for the parameter set's ring degree, so a
    workspace handed to a worker domain never mutates shared caches. *)

val cmux_rotate_row_into :
  Params.t -> workspace -> fft_sample -> int -> Trlwe_array.t -> row:int -> unit
(** [cmux_rotate_row_into p ws g a tr ~row] performs the blind-rotation
    recurrence acc ← acc + g ⊡ ((X^a − 1)·acc) in place on accumulator
    row [row] of [tr] — the CMux that selects X^a·acc when [g] encrypts 1
    and acc when it encrypts 0 — with zero allocation.  [a] must lie in
    [0, 2N).  This is the one CMux: {!Bootstrap.batch_rows_into} calls it
    once per row and key entry. *)
