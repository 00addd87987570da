(** The end-to-end PyTFHE compilation pipeline (paper Fig. 2):

    frontend (ChiselTorch model or hand-built circuit)
    → synthesis optimization (the Yosys role)
    → PyTFHE assembler (128-bit binary format)
    → any execution backend.

    A {!compiled} program carries every artifact later stages need: the
    optimized netlist, the binary, statistics and the BFS schedule. *)

type compiled = {
  prog_name : string;
  netlist : Pytfhe_circuit.Netlist.t;  (** After optimization. *)
  binary : bytes;  (** Assembled PyTFHE binary (Fig. 5). *)
  stats : Pytfhe_circuit.Stats.t;
  schedule : Pytfhe_circuit.Levelize.schedule;
  opt_report : Pytfhe_synth.Opt.report option;  (** [None] if unoptimized. *)
}

val compile :
  ?obs:Pytfhe_obs.Trace.sink ->
  ?optimize:bool -> ?lut_cover:bool -> name:string -> Pytfhe_circuit.Netlist.t -> compiled
(** Optimize (default [true]), levelize and assemble a circuit.  With
    [~lut_cover:true] (default [false]) the synthesis phase runs
    {!Pytfhe_synth.Opt.lut_cover} instead of plain {!Pytfhe_synth.Opt.optimize}:
    gate cones collapse into programmable LUT cells, typically cutting the
    bootstrap count well below the classic gate library's (the CLI exposes
    this as [--lut-cover]).  With an enabled [obs] sink, emits one span per
    compile phase (optimize or lut-cover/assemble/stats/levelize) on a
    ["compile"] track. *)

(** {2 Streaming compilation}

    The bounded-memory path for paper-scale programs: the builder
    callback constructs the circuit into a windowed netlist while an
    observer levelizes each node incrementally
    ({!Pytfhe_circuit.Levelize.Inc}) and emits its binary instruction to
    the sink ({!Pytfhe_circuit.Binary.Emit}) — the full binary is never
    resident, CSE tables stay bounded by [window], and no whole-DAG
    sweep runs at the end. *)

type stream_report = {
  gates : int;  (** Exact gate total (what a buffered header backpatch records). *)
  bootstraps : int;
      (** Blind rotations of the emitted binary
          ({!Pytfhe_circuit.Binary.Emit.bootstraps}). *)
  depth : int;  (** Waves = critical path in bootstrapped gates. *)
  max_width : int;  (** Peak exploitable parallelism. *)
  node_count : int;
  bytes_emitted : int;  (** Binary bytes pushed to the sink. *)
  cse_peak : int;  (** High-water mark of the structural-hashing tables. *)
  cse_evicted : int;  (** Entries evicted under a positive [window]. *)
  stream_schedule : Pytfhe_circuit.Levelize.schedule;
      (** Full schedule snapshot, for backend cost models
          ({!Pytfhe_backend.Sched_gpu} batching and the like). *)
}

val compile_stream :
  ?obs:Pytfhe_obs.Trace.sink ->
  ?hash_consing:bool ->
  ?fold_constants:bool ->
  ?window:int ->
  ?chunk:int ->
  name:string ->
  sink:(bytes -> unit) ->
  (Pytfhe_circuit.Netlist.t -> unit) ->
  stream_report
(** [compile_stream ~name ~sink builder] hands [builder] a fresh netlist
    (construction-time optimizations on by default; [window] bounds the
    CSE tables as in {!Pytfhe_circuit.Netlist.create}) and streams the
    assembled binary to [sink] in chunks of roughly [chunk] bytes
    (default 64 KiB) as construction proceeds.  The emitted header
    carries {!Pytfhe_circuit.Binary.streamed_gate_total} — executors
    treat the count as unknown; buffered or seekable sinks can backpatch
    it with {!Pytfhe_circuit.Binary.patch_header} and [report.gates]
    (which {!compile_stream_to_bytes} / {!compile_stream_to_file} do).
    No synthesis pass runs — streaming trades whole-program optimization
    for bounded memory, relying on the construction-time optimizations
    and frontend-level template reuse instead.  The byte stream is
    identical (modulo the header) to [compile ~optimize:false] over a
    netlist built identically.  With an enabled [obs] sink, emits one
    ["<name>:stream"] span on the ["compile"] track. *)

val compile_stream_to_bytes :
  ?obs:Pytfhe_obs.Trace.sink ->
  ?hash_consing:bool ->
  ?fold_constants:bool ->
  ?window:int ->
  ?chunk:int ->
  name:string ->
  (Pytfhe_circuit.Netlist.t -> unit) ->
  bytes * stream_report
(** {!compile_stream} into a buffer, with the header backpatched to the
    exact gate total — the drop-in replacement for
    [compile ~optimize:false] when the caller wants the bytes (and the
    differential tests' reference). *)

val compile_stream_to_file :
  ?obs:Pytfhe_obs.Trace.sink ->
  ?hash_consing:bool ->
  ?fold_constants:bool ->
  ?window:int ->
  ?chunk:int ->
  name:string ->
  path:string ->
  (Pytfhe_circuit.Netlist.t -> unit) ->
  stream_report
(** {!compile_stream} into a file, seeking back to backpatch the header
    once the gate total is known.  Peak memory is one chunk plus the
    windowed netlist — the path for programs whose binaries do not fit
    in memory. *)

val compile_model :
  name:string -> dtype:Pytfhe_chiseltorch.Dtype.t -> input_shape:int array ->
  Pytfhe_chiseltorch.Nn.model -> compiled
(** The ChiselTorch path: PyTorch-style model → circuit → binary.  Inputs
    are the flattened tensor elements ([x.<i>]), outputs the result
    elements ([y.<i>]). *)

val compile_workload : Pytfhe_vipbench.Workload.t -> compiled
(** Compile a registered benchmark. *)

val pp_summary : Format.formatter -> compiled -> unit

val failure_probability : compiled -> Pytfhe_tfhe.Params.t -> float
(** Probability that at least one of the program's bootstrapped gates
    decides the wrong sign under the given parameters — the end-to-end
    correctness bound a deployment should check before shipping a cloud
    key ([1 − (1 − p_gate)^bootstraps], from {!Pytfhe_tfhe.Noise}). *)

val check_correctness :
  compiled -> Pytfhe_tfhe.Params.t -> [ `Ok of float | `Risky of float ]
(** [`Risky] when the whole-program failure probability exceeds 2⁻²⁰. *)
