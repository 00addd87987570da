(** Plaintext streaming execution of PyTFHE binaries.

    The paper's executor never builds a graph structure: the sequential
    index "naming" of Fig. 5 lets it scan the 128-bit instruction stream
    once, keeping a value table indexed by gate number (§IV-C's "fast TFHE
    program DAG traversal").  This module is that scan on plaintext bits —
    the reference the encrypted {!Wave.cursor} is tested against.  No
    netlist is materialised. *)

val run_bits : bytes -> bool array -> bool array
(** Execute an assembled binary on plaintext bits; returns the outputs in
    output-instruction order.  Raises [Failure] on malformed streams (bad
    sizes, forward references, missing or duplicate header, more gates
    than the header declares), [Invalid_argument] unless the stream
    declares exactly [Array.length ins] inputs, and
    [Pytfhe_util.Wire.Corrupt] on structurally corrupt LUT records — a
    multi-input cell whose operand is not lutdom-encoded (the per-record
    field checks live in the {!Pytfhe_circuit.Binary} decoder). *)
