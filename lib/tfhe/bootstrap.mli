(** Programmable bootstrapping: blind rotation + sample extraction.

    The bootstrapping key encrypts each bit of the LWE key as a TGSW sample;
    blind rotation then homomorphically rotates a test polynomial by the
    (mod-switched) phase of the input ciphertext, refreshing its noise while
    applying a negacyclic lookup table.

    There is one blind rotation, the batched row kernel
    {!batch_rows_into}: every row runs the in-place recurrence
    acc ← acc + bskᵢ ⊡ ((X^{āᵢ} − 1)·acc) ({!Tgsw.cmux_rotate_row_into})
    on workspace-owned scratch.  A scalar call ({!bootstrap_wo_keyswitch},
    {!programmable}, the keyset-level gates) is a one-row launch on a
    workspace embedded in the key. *)

type key
(** Bootstrapping key: n TGSW encryptions (stored in the parameter set's
    evaluation form) of the LWE key bits under the ring key, plus the
    launch workspace the scalar calls share ({!scratch}), made on first
    use. *)

val key_gen : Pytfhe_util.Rng.t -> Params.t -> lwe_key:Lwe.key -> tlwe_key:Tlwe.key -> key

(** {2 The batched bootstrap (key streaming)}

    A launch of B rows shares one pass over the bootstrapping key: the
    batched blind rotation walks the n TGSW key entries once and applies
    each entry's CMux-rotate step to all B accumulators before moving on,
    so the (tens-of-MB) key is streamed from memory once per launch
    instead of once per row.  Each row carries its own {!job}, so sign
    bootstraps, LUT indicator rotations and table lookups share launches.
    A row's operation sequence does not depend on the other rows, so a
    one-row launch yields the same bits as the same row in a full one. *)

type job =
  | Job_sign of Torus.t  (** sign bootstrap to ±mu: one slot *)
  | Job_lut of int
      (** indicator rotation over a message space of this size (centred
          inside the kernel): one slot per message, slot [m] encrypting
          [\[message = m\]/16] *)
  | Job_table of Torus.t array
      (** programmable bootstrap of the table [t] over a message space of
          [Array.length t] (centred inside the kernel): one slot carrying
          [t.(μ)] *)

val job_slots : job -> int
(** Extracted samples a job yields: 1 for [Job_sign] and [Job_table],
    msize for [Job_lut]. *)

type batch
(** A structure-of-arrays batch workspace: one shared TGSW workspace and
    test-vector buffer plus [cap] accumulator rows of one
    {!Trlwe_array}.  It is single-threaded state — one per domain. *)

val batch_create : Params.t -> cap:int -> batch
(** Workspace for launches of up to [cap] ≥ 1 rows. *)

val batch_capacity : batch -> int

val scratch : key -> batch
(** The two-row workspace embedded in the key, made on first use: what
    the scalar calls launch on.  Never hand it to more than one domain at
    a time; concurrent callers take their own {!batch_create}. *)

val batch_rows_into :
  Params.t -> batch -> key -> job array -> src:Lwe_array.t -> dst:Lwe_array.t -> unit
(** [batch_rows_into p bt key jobs ~src ~dst]: run job [i] on row [i] of
    [src] (dimension n, length ≤ capacity, one job per row), streaming the
    bootstrapping key once for the whole launch, and extract every job's
    slots under the extracted key into [dst] (dimension k·N), flat in job
    order — no per-row record materialization.  Raises [Invalid_argument]
    on shape mismatches and on a [Job_lut]/[Job_table] message space that
    does not divide N. *)

type batch_stats = { bsk_rows_streamed : int; launches : int; gates_batched : int }
(** Cumulative key-traffic accounting since the last reset:
    [bsk_rows_streamed] counts bootstrapping-key entries read from memory
    (each entry is {!row_bytes} wide in evaluation form), [launches] counts
    {!batch_rows_into} calls and [gates_batched] the rows they
    processed. *)

val batch_stats : batch -> batch_stats
val batch_reset_stats : batch -> unit

val row_bytes : Params.t -> int
(** Bytes of one bootstrapping-key entry in evaluation form — FFT:
    (k+1)²·l spectra of N/2 complex bins at 16 bytes each; NTT: the same
    spectra as N u32 residues under each of the two primes — the unit
    [bsk_rows_streamed] is counted in. *)

(** {2 Scalar calls} *)

val bootstrap_wo_keyswitch : Params.t -> key -> mu:Torus.t -> Lwe.sample -> Lwe.sample
(** Refresh a ciphertext to an encryption of ±[mu] (sign of the input
    phase) under the {e extracted} key of dimension k·N: a one-row
    [Job_sign] launch on {!scratch}. *)

val programmable :
  Params.t -> key -> msize:int -> (int -> Torus.t) -> Lwe.sample -> Lwe.sample
(** Programmable bootstrapping (paper §II-B): refresh the ciphertext while
    applying an arbitrary lookup table.  The input must encrypt a message
    μ ∈ [0, msize) in the half-torus encoding μ/(2·msize); the result (under
    the extracted key) carries the torus value [f μ].  [msize] must divide
    the ring degree N.  A one-row [Job_table] launch on {!scratch}. *)

val key_bytes : Params.t -> int
(** Bytes of the key's torus coefficients at 32 bits each: the payload of
    its wire block. *)

val write : Pytfhe_util.Wire.writer -> key -> unit
(** Magic ["BSKY"], then one u32 block of n·(k+1)·l·(k+1)·N torus words
    ordered by key entry, TGSW row, component (k masks, then the body) and
    coefficient — one form for both transforms. *)

val read : Params.t -> Pytfhe_util.Wire.reader -> key
(** Raises [Wire.Corrupt] unless the block has exactly the length the
    parameter set fixes, checked before anything is allocated; then
    transforms every polynomial as key generation does
    ({!Tgsw.forward_torus}), so [read (write k)] holds bit-identical
    spectra. *)

(** {2 Indicator bootstrapping for LUT cells}

    The circuit-level LUT cells all run one {e table-independent} rotation
    ([Job_lut]): the test vector is a staircase whose top slot carries the
    lutdom unit 1/16, and extracting coefficient [(msize−1−m)·N/msize] of
    the rotated accumulator yields an encryption of [\[message = m\]/16].
    The table is applied afterwards as a plain sum of indicators, so one
    blind rotation serves any number of tables over the same inputs
    (multi-value bootstrapping), and sharing a rotation between nodes with
    identical inputs is pure memoization — bit-identical to rotating per
    node. *)

val lut_amplitude : Torus.t
(** The lutdom unit 1/16 carried by the staircase's hot slot. *)

val fill_lut_testvect : Params.t -> msize:int -> Poly.torus_poly -> unit
(** Overwrite a ring-degree buffer with the indicator staircase for a
    message space of [msize] (which must divide N). *)
