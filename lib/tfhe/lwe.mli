(** LWE samples over the discretised torus.

    An LWE sample under key s ∈ {0,1}ⁿ is (a, b) with b = ⟨a, s⟩ + μ + e.
    These are the ciphertexts that flow between bootstrapped gates. *)

type key = { key_n : int; bits : int array }
(** Binary secret key. *)

type sample = { a : int array; b : Torus.t }
(** Mask vector and body.  The mask length equals the key dimension. *)

val key_gen : Pytfhe_util.Rng.t -> n:int -> key
(** Sample a uniform binary key of dimension [n]. *)

val encrypt : Pytfhe_util.Rng.t -> key -> stdev:float -> Torus.t -> sample
(** Encrypt the torus message with fresh Gaussian noise. *)

val trivial : n:int -> Torus.t -> sample
(** Noiseless sample (0, μ) — encodes a public constant. *)

val phase : key -> sample -> Torus.t
(** b − ⟨a, s⟩: the message plus noise. *)

val decrypt : key -> msize:int -> sample -> int
(** Round the phase to the nearest of [msize] equispaced messages. *)

val decrypt_bit : key -> sample -> bool
(** Gate-bootstrapping convention: phase near +1/8 is [true], near −1/8 is
    [false] (sign of the centred phase). *)

val add : sample -> sample -> sample
(** Homomorphic addition of phases. *)

val sub : sample -> sample -> sample
(** Homomorphic subtraction of phases. *)

val neg : sample -> sample
(** Homomorphic negation (implements the noiseless NOT gate). *)

val scale : int -> sample -> sample
(** Integer scaling of the phase. *)

val ciphertext_bytes : n:int -> int
(** Serialized size of a sample at 32 bits per torus element — the 2.46 KB
    figure of the paper's Fig. 7 communication analysis. *)

val write_key : Pytfhe_util.Wire.writer -> key -> unit
val read_key : Pytfhe_util.Wire.reader -> key

val write_sample : Pytfhe_util.Wire.writer -> sample -> unit
(** 4 bytes per torus element: the on-the-wire ciphertext of Fig. 7. *)

val read_sample : Pytfhe_util.Wire.reader -> sample
