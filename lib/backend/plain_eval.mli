(** Functional (plaintext) execution of TFHE programs.

    The simulated backends use this evaluator for the values while the cost
    model accounts for the time; it is also the reference the encrypted
    backend is checked against.  Works on netlists and on assembled PyTFHE
    binaries. *)

val run : Pytfhe_circuit.Netlist.t -> bool array -> (string * bool) list
(** Evaluate a netlist on inputs in declaration order. *)

val run_binary : bytes -> bool array -> bool array
(** Execute an assembled PyTFHE binary on plaintext bits: inputs in
    input-declaration order, outputs in output-instruction order.

    The paper's executor builds no graph: the sequential numbering of
    Fig. 5 lets it scan the instruction stream once with a value table
    indexed by gate number (§IV-C).  This is that scan on plaintext bits,
    through {!Pytfhe_circuit.Binary.reader} and
    {!Pytfhe_circuit.Binary.Check}; no netlist is built.  It accepts
    exactly the programs {!Pytfhe_circuit.Binary.parse} and the encrypted
    cursor accept and computes what {!run} computes on the parsed netlist.
    Raises [Pytfhe_util.Wire.Corrupt] on a malformed stream and
    [Invalid_argument] unless the stream declares exactly
    [Array.length ins] inputs. *)

val run_named : Pytfhe_circuit.Netlist.t -> (string * bool) list -> (string * bool) list
(** Evaluate with inputs given by name; raises [Not_found] if an input is
    missing from the bindings. *)
