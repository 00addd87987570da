(** Programmable bootstrapping: blind rotation + sample extraction.

    The bootstrapping key encrypts each bit of the LWE key as a TGSW sample;
    blind rotation then homomorphically rotates a test polynomial by the
    (mod-switched) phase of the input ciphertext, refreshing its noise while
    applying a negacyclic lookup table.

    The hot loop runs the in-place recurrence
    acc ← acc + bskᵢ ⊡ ((X^{āᵢ} − 1)·acc) through workspace-owned scratch
    ({!Tgsw.cmux_rotate_into}), so a steady-state bootstrapped gate
    allocates only its output ciphertext. *)

type key
(** Bootstrapping key: n TGSW encryptions (stored in FFT form) of the LWE
    key bits under the ring key, plus a default evaluation context for
    single-threaded use. *)

type context
(** Per-thread mutable evaluation state: the TGSW workspace, a reusable
    ring-degree test-vector buffer and the blind-rotation accumulator.  The
    key's own {!default_context} serves the sequential executor; a multicore
    executor creates one context per domain so no scratch memory is
    shared. *)

val context_create : Params.t -> context
(** Fresh scratch for one evaluation thread.  Also precomputes the FFT
    caches for the parameter set's ring degree (via
    [Tgsw.workspace_create]). *)

val default_context : key -> context
(** The context embedded in the key — used by the [_wo_keyswitch] wrappers.
    Never hand it to more than one domain at a time. *)

val key_gen : Pytfhe_util.Rng.t -> Params.t -> lwe_key:Lwe.key -> tlwe_key:Tlwe.key -> key

val blind_rotate : Params.t -> key -> testvect:Poly.torus_poly -> Lwe.sample -> Tlwe.sample
(** Rotate [testvect] by X^{−phase·2N} under encryption, using the key's
    default workspace. *)

val blind_rotate_with :
  Params.t -> Tgsw.workspace -> key -> testvect:Poly.torus_poly -> Lwe.sample -> Tlwe.sample
(** Like {!blind_rotate} but with caller-supplied scratch, for concurrent
    evaluation.  Allocates the returned accumulator; the hot path uses
    {!blind_rotate_into}. *)

val blind_rotate_into :
  Params.t ->
  Tgsw.workspace ->
  key ->
  testvect:Poly.torus_poly ->
  acc:Tlwe.sample ->
  Lwe.sample ->
  unit
(** Allocation-free blind rotation: overwrites [acc] (which must have the
    parameter set's shape and not alias workspace scratch) with the rotated
    test vector.  This is the per-gate hot path. *)

val bootstrap_wo_keyswitch : Params.t -> key -> mu:Torus.t -> Lwe.sample -> Lwe.sample
(** Refresh a ciphertext to an encryption of ±[mu] (sign of the input
    phase) under the *extracted* key of dimension k·N.  Uses the key's
    default context. *)

val bootstrap_with : Params.t -> context -> key -> mu:Torus.t -> Lwe.sample -> Lwe.sample
(** {!bootstrap_wo_keyswitch} through an explicit context: no allocation
    beyond the extracted output ciphertext, and safe to call concurrently
    from several domains as long as each uses its own context. *)

(** {2 The batched bootstrap (key streaming)}

    A launch of B rows shares one pass over the bootstrapping key: the
    batched blind rotation walks the n TGSW key entries once and applies
    each entry's CMux-rotate step to all B accumulators before moving on,
    so the (tens-of-MB) key is streamed from memory once per launch
    instead of once per row.  Each row carries its own {!job}, so sign
    bootstraps and LUT indicator rotations share launches.  The per-row
    operation sequence is the scalar path's, so every result is
    ciphertext-bit-exact with {!bootstrap_with} or {!lut_indicators}. *)

type job =
  | Job_sign of Torus.t  (** sign bootstrap to ±mu: one slot *)
  | Job_lut of int
      (** indicator rotation over a message space of this size (centred
          inside the kernel, like {!lut_indicators}): one slot per
          message *)

val job_slots : job -> int
(** Extracted samples a job yields: 1 for [Job_sign], msize for
    [Job_lut]. *)

type batch
(** A structure-of-arrays batch workspace: one shared TGSW workspace and
    test-vector buffer plus [cap] accumulator rows of one
    {!Trlwe_array}.  Like {!context}, it is single-threaded state — one
    per domain. *)

val batch_create : Params.t -> cap:int -> batch
(** Workspace for launches of up to [cap] ≥ 1 rows. *)

val batch_capacity : batch -> int

val batch_rows_into :
  Params.t -> batch -> key -> job array -> src:Lwe_array.t -> dst:Lwe_array.t -> unit
(** [batch_rows_into p bt key jobs ~src ~dst]: run job [i] on row [i] of
    [src] (dimension n, length ≤ capacity, one job per row), streaming the
    bootstrapping key once for the whole launch, and extract every job's
    slots under the extracted key into [dst] (dimension k·N), flat in job
    order — no per-row record materialization.  A [Job_sign mu] slot is
    bit-identical to [bootstrap_with p ctx key ~mu]; slot [m] of a
    [Job_lut msize] is element [m] of {!lut_indicators} on the uncentred
    row.  Raises [Invalid_argument] on shape mismatches. *)

type batch_stats = { bsk_rows_streamed : int; launches : int; gates_batched : int }
(** Cumulative key-traffic accounting since the last reset:
    [bsk_rows_streamed] counts bootstrapping-key entries read from memory
    (each entry is {!row_bytes} wide in FFT form), [launches] counts
    {!batch_rows_into} calls and [gates_batched] the rows they
    processed. *)

val batch_stats : batch -> batch_stats
val batch_reset_stats : batch -> unit

val row_bytes : Params.t -> int
(** Bytes of one bootstrapping-key entry in evaluation form — FFT:
    (k+1)²·l spectra of N/2 complex bins at 16 bytes each; NTT: the same
    spectra as N u32 residues under each of the two primes — the unit
    [bsk_rows_streamed] is counted in. *)

val key_bytes : Params.t -> int
(** Serialized size of the bootstrapping key at 32 bits per torus element. *)

val write : Pytfhe_util.Wire.writer -> key -> unit

val read : Params.t -> Pytfhe_util.Wire.reader -> key
(** The parameter set recreates the scratch workspace on load and validates
    the key's shape (row/component/spectrum counts and the LWE dimension)
    against it, raising [Wire.Corrupt] on mismatch. *)

val programmable :
  Params.t -> key -> msize:int -> (int -> Torus.t) -> Lwe.sample -> Lwe.sample
(** Programmable bootstrapping (paper §II-B): refresh the ciphertext while
    applying an arbitrary lookup table.  The input must encrypt a message
    μ ∈ [0, msize) in the half-torus encoding μ/(2·msize); the result (under
    the extracted key) carries the torus value [f μ].  [msize] must divide
    the ring degree N. *)

(** {2 Indicator bootstrapping for LUT cells}

    The circuit-level LUT cells all run one {e table-independent} rotation:
    the test vector is a staircase whose top slot carries the lutdom unit
    1/16, and extracting coefficient [(msize−1−m)·N/msize] of the rotated
    accumulator yields an encryption of [\[message = m\]/16].  The table is
    applied afterwards as a plain sum of indicators, so one blind rotation
    serves any number of tables over the same inputs (multi-value
    bootstrapping), and sharing a rotation between nodes with identical
    inputs is pure memoization — bit-identical to rotating per node. *)

val lut_amplitude : Torus.t
(** The lutdom unit 1/16 carried by the staircase's hot slot. *)

val fill_lut_testvect : Params.t -> msize:int -> Poly.torus_poly -> unit
(** Overwrite a ring-degree buffer with the indicator staircase for a
    message space of [msize] (which must divide N). *)

val lut_extract_indicators : Params.t -> msize:int -> Tlwe.sample -> Lwe.sample array
(** Extract the [msize] indicator slots of a rotated accumulator, indexed
    by message value (element [m] encrypts [\[message = m\]/16]) — under the
    extracted key, before any key switch. *)

val lut_indicators : Params.t -> context -> key -> msize:int -> Lwe.sample -> Lwe.sample array
(** One indicator rotation through a context: centre, rotate the staircase,
    extract all [msize] indicators.  The input phase must carry the
    combined LUT message m/(2·msize). *)
