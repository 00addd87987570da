(** The client side of the protocol (paper Fig. 1): key generation,
    encryption of typed values into bit-level ciphertexts, decryption of
    results.  The secret keyset never leaves this module's values; the
    server only ever sees the cloud keyset and ciphertexts. *)

open Pytfhe_tfhe

type t
(** Client state: secret keys plus the encryption randomness stream. *)

val keygen : ?params:Params.t -> ?seed:int -> unit -> t * Gates.cloud_keyset
(** Generate the client keys and the evaluation keyset to ship to the
    server.  Defaults to {!Params.default_128}.  [seed] makes the keys and
    the client's encryptions reproducible; without it they are drawn from
    OS entropy. *)

val params : t -> Params.t

val encrypt_bit : t -> bool -> Lwe.sample
val decrypt_bit : t -> Lwe.sample -> bool

val encrypt_bits : t -> bool array -> Lwe.sample array
val decrypt_bits : t -> Lwe.sample array -> bool array

val encrypt_value : t -> Pytfhe_chiseltorch.Dtype.t -> float -> Lwe.sample array
(** Quantize a number with the dtype and encrypt its bits (LSB first) —
    matching the wire order of a ChiselTorch tensor element. *)

val decrypt_value : t -> Pytfhe_chiseltorch.Dtype.t -> Lwe.sample array -> float

val client_id : t -> string
(** A stable 16-hex-char tenant identity derived from (but not revealing)
    the secret keyset — the default [client_id] the CLI registers keysets
    under with the FHE-as-a-service server.  Deterministic across
    {!save}/{!load} round-trips.  It is an {e identifier}, not an
    authenticator: the service trusts ids as namespace labels only. *)

val cloud_key_bytes : t -> int
(** Serialized size of the public evaluation keys (bootstrapping plus key
    switching) — the "few megabytes" the paper contrasts with CKKS rotation
    keys. *)

val save : t -> string -> unit
(** Persist the secret keyset (keep it on the client!). *)

val load : string -> t
(** The loaded client encrypts under fresh masks drawn from OS entropy.
    Raises [Pytfhe_util.Wire.Corrupt] on malformed input. *)
