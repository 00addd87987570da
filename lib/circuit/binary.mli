(** The PyTFHE binary format (paper Fig. 5/6).

    Every instruction is 128 bits, stored as two little-endian 64-bit words
    (low word first).  Bit layout over the 128-bit value: bits 127–66 hold
    field A (62 bits), bits 65–4 field B (62 bits), bits 3–0 the type tag.

    - {b header} (first instruction): A = 0, B = total gate count, tag 0x0.
    - {b input}: A = all-ones, B = the reserved index, tag 0xF.
    - {b gate}: A = fan-in 0 index, B = fan-in 1 index, tag = gate code
      (1–11; XOR = 0110 as in the paper).
    - {b output}: A = all-ones, B = producing index, tag 0x3 — distinguished
      from an OR gate by the all-ones A field, which can never be a valid
      fan-in index.
    - {b lut}: tag 0xC.  A = first operand index; B packs the arity in
      bits 0–1, the truth table in bits 2–9, and the second and third
      operand indices in bits 10–35 and 36–61 (26 bits each; unused
      operand fields must be zero).  Decoding validates the record — an
      arity of 0, a table wider than 2^2^arity, or nonzero reserved bits
      raise [Pytfhe_util.Wire.Corrupt].

    Indices are assigned sequentially from 1 (inputs first, then gates), the
    "naming" scheme that makes DAG traversal a linear scan. *)

type instruction =
  | Header of { gate_total : int }
  | Input_decl of { index : int }
  | Gate_inst of { gate : Gate.t; in0 : int; in1 : int }
  | Lut_inst of { table : int; ins : int array }
  | Output_decl of { index : int }

val assemble : Netlist.t -> bytes
(** Serialize a netlist.  Constant nodes are materialised from the first
    input (XOR(i,i) / XNOR(i,i)); raises [Failure] if the netlist has live
    constants but no inputs. *)

val streamed_gate_total : int
(** Header sentinel (all-ones) carried by streamed binaries whose producer
    could not know the final gate count; executors treat it as "unknown"
    and skip the gate-budget check. *)

val patch_header : bytes -> int -> unit
(** Overwrite the header's gate count in place — how buffered streaming
    producers turn a sentinel header into an exact one. *)

(** Streaming assembler: emits the instruction stream node by node in
    netlist id order, flushing chunks to a sink, so the binary never has to
    be resident in full.  For input-first netlists the output is
    byte-identical to {!assemble} (modulo the header, which starts as
    {!streamed_gate_total} — backpatch via {!patch_header} when the sink is
    seekable). *)
module Emit : sig
  type t

  val create : ?chunk:int -> write:(bytes -> unit) -> Netlist.t -> t
  (** Emits the (sentinel) header immediately.  [write] receives chunks of
      roughly [chunk] bytes (default 64 KiB). *)

  val note : t -> Netlist.id -> unit
  (** Emit the instruction for one node.  Must be called in ascending id
      order over every node of the netlist; {!attach} does this
      automatically for nodes created after it.  Nodes preceding the first
      input are deferred and flushed once an input exists. *)

  val attach : t -> unit
  (** Install {!note} as the netlist's observer, so every node constructed
      from now on is emitted as a side effect of construction. *)

  val finish : t -> int
  (** Emit the output declarations, flush, and return the true gate total
      (for {!patch_header}).  Raises [Failure] like {!assemble} when live
      constants have no input to derive from. *)

  val bytes_emitted : t -> int
  val gate_total : t -> int

  val bootstraps : t -> int
  (** Blind rotations the instructions emitted so far cost, counted as
      {!Stats.compute} counts the parsed binary: every gate but NOT
      (including the XOR/XNOR gates that derive live constants from the
      first input), every arity-1 LUT, and one per distinct operand set of
      the multi-input LUTs. *)
end

(** {1 Reading}

    One byte loop ({!reader}) decodes every stream, and one checker
    ({!Check}) holds the stream rules; {!parse}, the plaintext interpreter
    ([Plain_eval.run_binary]) and the encrypted executors' cursor
    ([Wave.cursor]) all read through both, so they accept exactly the same
    programs.  Every decoding fault raises [Pytfhe_util.Wire.Corrupt]. *)

val reader : (unit -> bytes option) -> unit -> instruction option
(** A pull decoder over a pull source: [reader read] returns a function
    giving the next instruction, or [None] at end of stream.  [read ()]
    returns the next chunk of the stream (arbitrary framing — instructions
    may straddle chunks) or [None] at end of stream.  Raises
    [Pytfhe_util.Wire.Corrupt] on an unknown tag, a corrupt LUT record, a
    truncated trailing instruction or an empty stream.  It checks no
    stream rule: that is {!Check}'s job. *)

val bytes_source : bytes -> unit -> bytes option
(** A resident binary as a pull source of one chunk. *)

val read_source : ?chunk:int -> in_channel -> unit -> bytes option
(** A pull source over an open channel, reading [chunk]-byte blocks
    (default 64 KiB). *)

(** The stream rules, fed one instruction at a time.  {!feed} raises
    [Pytfhe_util.Wire.Corrupt] unless:
    - there is exactly one header, and it comes first;
    - each input declaration names the next index (indices run
      sequentially from 1);
    - every operand field — both fields of every gate, NOT included,
      every LUT operand and every output — names an assigned index;
    - an exact header's gate count is never exceeded (a
      {!streamed_gate_total} header declares none);
    - the operands of a multi-input LUT are lutdom-encoded (LUT outputs).

    Gates and LUT cells take the next index, as do input declarations. *)
module Check : sig
  type t

  val create : unit -> t
  val feed : t -> instruction -> unit

  val constant : t -> unit
  (** A classic value at the next index that no instruction declares (a
      netlist source's constant); only after the header. *)

  val is_lut : t -> int -> bool
  (** Whether an assigned index holds a lutdom value. *)

  val inputs : t -> int
  (** Input declarations fed so far. *)
end

val disassemble : bytes -> instruction list
(** Decode a resident binary.  Checks only that the header comes first, so
    a program whose later structure is broken still prints; raises
    [Pytfhe_util.Wire.Corrupt] where {!reader} does and on a missing
    header. *)

val parse : bytes -> Netlist.t
(** Rebuild a netlist (with construction-time optimizations disabled, so
    the program round-trips bit-for-bit) from the checked stream.  Raises
    [Pytfhe_util.Wire.Corrupt] where {!reader} or {!Check.feed} does. *)

val instruction_count : bytes -> int
(** Number of 128-bit instructions; raises [Pytfhe_util.Wire.Corrupt]
    unless the length is a multiple of 16 bytes. *)

val pp_instruction : Format.formatter -> instruction -> unit

val write_file : string -> bytes -> unit
val read_file : string -> bytes
