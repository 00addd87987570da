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

val disassemble : bytes -> instruction list
(** Decode an instruction stream.  Raises [Failure] on malformed input
    (bad length, missing header, unknown tag, index out of range). *)

val parse : bytes -> Netlist.t
(** Rebuild a netlist (with construction-time optimizations disabled, so
    the program round-trips bit-for-bit).  Raises [Pytfhe_util.Wire.Corrupt]
    on structurally invalid LUT records (e.g. a multi-input LUT whose
    operand is not a LUT node). *)

val instruction_count : bytes -> int
(** Number of 128-bit instructions. *)

val pp_instruction : Format.formatter -> instruction -> unit

val write_file : string -> bytes -> unit
val read_file : string -> bytes

val iter : bytes -> (instruction -> unit) -> unit
(** Streaming decode: apply the callback to each instruction in order
    without materialising a list (used by the plaintext interpreter on
    multi-million-gate programs). *)

val reader : (unit -> bytes option) -> unit -> instruction option
(** A pull decoder over a pull source: [reader read] returns a function
    giving the next instruction, or [None] at end of stream.  [read ()]
    returns the next chunk of the stream (arbitrary framing — instructions
    may straddle chunks) or [None] at end of stream; a resident binary is a
    source of one chunk.  Raises [Failure] on a truncated trailing
    instruction or an empty stream, and what the record decoder raises. *)

val read_source : ?chunk:int -> in_channel -> unit -> bytes option
(** A pull source over an open channel, reading [chunk]-byte blocks
    (default 64 KiB) — plug into {!reader}. *)
