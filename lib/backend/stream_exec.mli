(** Streaming execution of PyTFHE binaries.

    The paper's executor never builds a graph structure: the sequential
    index "naming" of Fig. 5 lets it scan the 128-bit instruction stream
    once, keeping a value table indexed by gate number (§IV-C's "fast TFHE
    program DAG traversal").  This module is that executor — a plaintext
    one-pass interpreter, and the streamed-binary wave source every
    encrypted backend's [run_stream] is built on.  No netlist is
    materialised either way. *)

val run_bits : bytes -> bool array -> bool array
(** Execute an assembled binary on plaintext bits; returns the outputs in
    output-instruction order.  Raises [Failure] on malformed streams (bad
    sizes, forward references, missing or duplicate header, more gates
    than the header declares) and [Pytfhe_util.Wire.Corrupt] on
    structurally corrupt LUT records — a multi-input cell whose operand is
    not lutdom-encoded (the per-record field checks live in the
    {!Pytfhe_circuit.Binary} decoder). *)

(** {1 Segmented wave driver}

    The streaming counterpart of {!Wave.run_netlist}.  Instructions are
    consumed as they arrive; bootstrapped gates and LUT cells are queued by
    wave (level = 1 + max operand level within the current segment) and
    handed to [run_wave] one wave at a time as the same {!Wave.job}s a
    materialised netlist would give — LUT cells over one operand tuple in
    one rotation group.  When the queued bootstrap count reaches [window]
    the segment flushes level by level, bounding peak queued work.  NOT
    gates are evaluated inline (immediately when their operand is
    computed, after the producing wave otherwise), matching
    {!Pytfhe_circuit.Levelize.waves} semantics. *)

val run_waves :
  ?obs:Pytfhe_obs.Trace.sink ->
  ?window:int ->
  ?probe:(Pytfhe_obs.Trace.track -> unit) ->
  run_wave:(Wave.job array -> Pytfhe_tfhe.Lwe.sample array) ->
  Pytfhe_tfhe.Gates.cloud_keyset ->
  (unit -> bytes option) ->
  Pytfhe_tfhe.Lwe.sample array ->
  Pytfhe_tfhe.Lwe.sample array * Wave.stats
(** Execute a streamed binary wave by wave; [run_wave] must return every
    job's outputs flat, in job order.  Default [window] is 32768 queued
    bootstraps per segment.  [stats.wave_width]/[wave_wall] cover executed
    waves in order.  With an enabled [obs] sink, each executed wave's
    counters ({!Wave.wave_probe}, plus [probe]) land on a
    ["stream-waves"] track, which ends with one span for the whole run.
    Error contract of {!run_bits}, plus [Invalid_argument] when the stream
    declares more inputs than given. *)

val run_encrypted_stream :
  ?opts:Exec_opts.t ->
  ?window:int ->
  Pytfhe_tfhe.Gates.cloud_keyset ->
  (unit -> bytes option) ->
  Pytfhe_tfhe.Lwe.sample array ->
  Pytfhe_tfhe.Lwe.sample array * Tfhe_eval.stats
(** Single-process encrypted execution of a streamed binary: {!run_waves}
    over one {!Wave.engine} of capacity [opts.batch].  Outputs are
    ciphertext-bit-exact with {!Tfhe_eval.run} over the parsed netlist.
    For a resident binary pass a pull source over its bytes. *)
