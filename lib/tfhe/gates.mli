(** Bootstrapped boolean gates — the TFHE-library-style public API.

    The client holds a {!secret_keyset} (encrypt/decrypt); the server holds
    the {!cloud_keyset} (bootstrapping + key-switching keys) and evaluates
    gates on ciphertexts it cannot read.  Every two-input gate performs one
    bootstrapping; [not_gate] and [constant] are noiseless.

    Every bootstrap goes through one launch, {!bootstrap_batch}.  A
    keyset-level call ([nand_gate] … [mux_gate], the LUT cells,
    {!apply_lut}) is its one-cell case, run on the workspace embedded in
    the bootstrapping key ({!Bootstrap.scratch}): correct sequentially,
    but a data race if several domains evaluate through one keyset at
    once.  Concurrent callers take a {!batch_context} each. *)

type secret_keyset = {
  params : Params.t;
  lwe_key : Lwe.key;
  tlwe_key : Tlwe.key;
  extracted_key : Lwe.key;
}

type cloud_keyset = {
  cloud_params : Params.t;
  bootstrap_key : Bootstrap.key;
  keyswitch_key : Keyswitch.key;
}

val key_gen : Pytfhe_util.Rng.t -> Params.t -> secret_keyset * cloud_keyset
(** Generate the client/server key pair. *)

val encrypt_bit : Pytfhe_util.Rng.t -> secret_keyset -> bool -> Lwe.sample
(** Encrypt a boolean as ±1/8 with fresh noise. *)

val decrypt_bit : secret_keyset -> Lwe.sample -> bool
(** Recover a boolean from a gate output. *)

val constant : cloud_keyset -> bool -> Lwe.sample
(** Noiseless trivial encryption of a public constant. *)

val not_gate : cloud_keyset -> Lwe.sample -> Lwe.sample
(** Negation; noiseless, no bootstrapping. *)

val and_gate : cloud_keyset -> Lwe.sample -> Lwe.sample -> Lwe.sample
val or_gate : cloud_keyset -> Lwe.sample -> Lwe.sample -> Lwe.sample
val xor_gate : cloud_keyset -> Lwe.sample -> Lwe.sample -> Lwe.sample
val nand_gate : cloud_keyset -> Lwe.sample -> Lwe.sample -> Lwe.sample
val nor_gate : cloud_keyset -> Lwe.sample -> Lwe.sample -> Lwe.sample
val xnor_gate : cloud_keyset -> Lwe.sample -> Lwe.sample -> Lwe.sample

val andny_gate : cloud_keyset -> Lwe.sample -> Lwe.sample -> Lwe.sample
(** [andny a b] = (¬a) ∧ b. *)

val andyn_gate : cloud_keyset -> Lwe.sample -> Lwe.sample -> Lwe.sample
(** [andyn a b] = a ∧ (¬b). *)

val orny_gate : cloud_keyset -> Lwe.sample -> Lwe.sample -> Lwe.sample
(** [orny a b] = (¬a) ∨ b. *)

val oryn_gate : cloud_keyset -> Lwe.sample -> Lwe.sample -> Lwe.sample
(** [oryn a b] = a ∨ (¬b). *)

val mux_gate : cloud_keyset -> Lwe.sample -> Lwe.sample -> Lwe.sample -> Lwe.sample
(** [mux s x y] = if s then x else y; two bootstrappings (one two-row
    launch) and one key switch, as in the reference library. *)

(** {2 Gate combine plans}

    Every two-input gate is the same pipeline: a linear phase combination
    (captured by a {!combine_plan}), the sign bootstrap with μ = 1/8, and a
    key switch.  Exposing the combination as data lets the batched executors
    mix gate types in one bootstrap batch.

    The linear maps here and under {!section-luts} ({!combine},
    {!lut_combine}, {!lut_to_classic}) write one {!Lwe_array} row through
    {!Lwe_array.affine_into}, so the destination may be one of the source
    rows, and raise [Invalid_argument] as it does. *)

type combine_plan = {
  plan_const : Torus.t;  (** trivial offset added to the phase *)
  plan_scale : int;  (** input scaling (2 for XOR/XNOR, else 1) *)
  plan_sign_a : int;  (** +1 to add input a, −1 to subtract *)
  plan_sign_b : int;  (** +1 to add input b, −1 to subtract *)
}

val nand_plan : combine_plan
val and_plan : combine_plan
val or_plan : combine_plan
val nor_plan : combine_plan
val andny_plan : combine_plan
val andyn_plan : combine_plan
val orny_plan : combine_plan
val oryn_plan : combine_plan
val xor_plan : combine_plan
val xnor_plan : combine_plan

val combine :
  combine_plan ->
  dst:Lwe_array.t ->
  drow:int ->
  a:Lwe_array.t ->
  arow:int ->
  b:Lwe_array.t ->
  brow:int ->
  unit
(** [dst.(drow) ← const ± scale·a.(arow) ± scale·b.(brow)], the gate's
    phase; launch it under {!gate_cell}. *)

(** {2 Batched wave execution}

    A {!batch_context} wraps the one batched bootstrap
    ({!Bootstrap.batch_rows_into}) and the batched key switch for executor
    use: combine the phases of up to [cap] cells — classic gates, arity-1
    cells and LUT rotation groups may share a launch, each row carrying
    its own {!batch_cell} — then one {!bootstrap_batch} call streams the
    bootstrapping key and the key-switch table once each for the whole
    launch.  A cell's outputs do not depend on the cells launched beside
    it, so they are ciphertext-bit-exact with the keyset-level call on the
    same operands.  A batch context is private to one domain. *)

type batch_cell =
  | Cell_sign of { mu : Torus.t; post : Torus.t }
      (** sign bootstrap to ±mu, then add [post] after the key switch
          (classic gates, arity-1 cells); one output *)
  | Cell_lut of { arity : int; tables : int array }
      (** one indicator rotation, one output per table *)

val gate_cell : batch_cell
(** The {!Cell_sign} of every classic gate: ±1/8, no offset. *)

val cell_outputs : batch_cell -> int
(** Outputs a cell produces: 1 for a sign cell, one per table for a LUT
    cell. *)

type batch_context

val batch_context : cloud_keyset -> cap:int -> batch_context
(** Batch workspace for up to [cap] ≥ 1 cells per launch. *)

val batch_capacity : batch_context -> int

val bootstrap_batch : batch_context -> batch_cell array -> Lwe_array.t -> Lwe_array.t
(** [bootstrap_batch bc cells combined]: one launch over the rows of
    [combined] (length ≤ capacity; a short final batch is fine), row [i]
    running [cells.(i)].  A row holds the cell's already-combined input —
    the {!combine}d phase of a gate, the classic operand of an arity-1
    cell, the {!lut_combine} sum (uncentred) of a LUT group.  The result
    holds every cell's outputs flat in cell order.  It is a slice of the
    context's own output
    scratch — valid until the next launch on this context; blit the rows
    out before relaunching. *)

val bootstrap_batch_rows : batch_context -> Lwe_array.t -> Lwe_array.t
(** {!bootstrap_batch} with every row a classic gate ({!gate_cell}): row
    [i] of the result is the sign bootstrap and key switch of row [i], as
    in the keyset-level gates. *)

type batch_counters = {
  batch_launches : int;  (** batched bootstrap kernel launches *)
  batch_gates : int;  (** rows processed through those launches *)
  bsk_rows : int;  (** bootstrapping-key entries streamed, unit {!Bootstrap.row_bytes} *)
  ks_blocks : int;  (** key-switch table blocks streamed, unit {!Keyswitch.block_bytes} *)
}

val batch_counters : batch_context -> batch_counters
(** Cumulative key-traffic counters since the last reset — the executors
    drain these at wave barriers into the obs layer. *)

val reset_batch_counters : batch_context -> unit

val write_secret_keyset : Pytfhe_util.Wire.writer -> secret_keyset -> unit

val read_secret_keyset : Pytfhe_util.Wire.reader -> secret_keyset
(** Raises [Wire.Corrupt] unless the LWE key has n bits and the ring key
    has k binary polynomials of N coefficients under the keyset's own
    parameters. *)

val write_cloud_keyset : Pytfhe_util.Wire.writer -> cloud_keyset -> unit
(** The evaluation keys the client ships to the server (bootstrapping key +
    key-switching key + parameters). *)

val read_cloud_keyset : Pytfhe_util.Wire.reader -> cloud_keyset

(** {2 Multi-value messages via programmable bootstrapping}

    Beyond boolean gates, TFHE can carry a small integer μ ∈ [0, msize) in
    the half-torus encoding μ/(2·msize) and apply an arbitrary table lookup
    during a single bootstrapping. *)

val encrypt_message : Pytfhe_util.Rng.t -> secret_keyset -> msize:int -> int -> Lwe.sample
val decrypt_message : secret_keyset -> msize:int -> Lwe.sample -> int

val apply_lut : cloud_keyset -> msize:int -> table:int array -> Lwe.sample -> Lwe.sample
(** [apply_lut ck ~msize ~table c] returns an encryption of
    [table.(μ) mod msize] with fresh noise (one {!Bootstrap.programmable}
    + one key switch).  [Array.length table] must equal [msize]. *)

(** {2:luts Programmable LUT cells}

    First-class 1-/2-/3-input boolean LUT cells: any k-input function is one
    blind rotation.  LUT cells carry bits in the {e lutdom} encoding
    b/16 ∈ {0, 1/16} (not the classic ±1/8): 2/3 lutdom bits combine
    linearly as 2a+b / 4a+2b+c into a message mod 4/8 — operand 0 is the
    MSB — and the table, an [arity]-th power-of-two-bit integer whose bit m
    is the output on message m, is applied as a sum of extracted indicator
    slots of one table-independent staircase rotation (multi-value
    bootstrapping: the [_multi] variants reuse one rotation for several
    tables).  A classic bit enters lutdom through an arity-1 cell (one sign
    bootstrap); lutdom converts back to classic for free
    ({!lut_to_classic}). *)

val encrypt_lut_bit : Pytfhe_util.Rng.t -> secret_keyset -> bool -> Lwe.sample
(** Fresh lutdom encryption of a boolean (0 or 1/16). *)

val decrypt_lut_bit : secret_keyset -> Lwe.sample -> bool
(** Decode a lutdom bit (phase rounds to 1/16 ⇒ true). *)

val lut_constant : cloud_keyset -> bool -> Lwe.sample
(** Noiseless trivial lutdom encryption of a public bit. *)

val lut_to_classic : dst:Lwe_array.t -> drow:int -> Lwe_array.t -> int -> unit
(** [lut_to_classic ~dst ~drow src srow]: [dst.(drow) ← 4·src.(srow) − 1/8],
    the exact lutdom→classic view ±1/8; no bootstrap. *)

val lut_combine : dst:Lwe_array.t -> drow:int -> Lwe_array.t -> int array -> unit
(** [lut_combine ~dst ~drow src rows]: [dst.(drow) ← Σ 2^(2−i)·src.(rows.(i))],
    the message of [Array.length rows] (1–3) lutdom operands, operand 0
    the MSB; launch it under a {!Cell_lut} of that arity.  The weight
    2^(2−i) is independent of arity: lutdom bits sit at 1/16, so it lands
    message m on m/(2·msize) — one rotation slot per message step — for
    msize 2, 4 and 8 alike.  Raises [Invalid_argument] on an arity outside
    1–3. *)

val lut1 : cloud_keyset -> table:int -> Lwe.sample -> Lwe.sample
(** Arity-1 LUT cell: classic input, lutdom output, one sign bootstrap
    ({!sign_cell}). *)

val reencode : cloud_keyset -> Lwe.sample -> Lwe.sample
(** [lut1 ~table:0b10]: classic bit → lutdom bit. *)

val lut2 : cloud_keyset -> table:int -> Lwe.sample -> Lwe.sample -> Lwe.sample
val lut3 : cloud_keyset -> table:int -> Lwe.sample -> Lwe.sample -> Lwe.sample -> Lwe.sample
val lut2_multi : cloud_keyset -> tables:int array -> Lwe.sample -> Lwe.sample -> Lwe.sample array

val lut3_multi :
  cloud_keyset -> tables:int array -> Lwe.sample -> Lwe.sample -> Lwe.sample -> Lwe.sample array
(** One indicator rotation ({!Cell_lut}), one output per table
    (multi-value bootstrapping). *)

val sign_cell : table:int -> batch_cell
(** The {!Cell_sign} of an arity-1 cell's 2-bit table [t₁t₀]: the sign
    bootstrap to (t₁−t₀)/32, then the offset (t₁+t₀)/32, lands on t/16
    lutdom. *)
