(** The wave engine: the one place the executors bootstrap.

    Every backend runs the same unit of work — one level of the paper's
    BFS schedule (Alg. 1), the GPU backend's CUDA-Graph batch.  A {!wave}
    is exactly what {!Pytfhe_tfhe.Gates.bootstrap_batch} takes: one batch
    cell and one combined {!Pytfhe_tfhe.Lwe_array} row per job.  {!exec}
    runs it on a per-domain {!engine} in launches of at most the engine's
    capacity and writes the outputs in job order.  Scalar execution is
    capacity 1, not a second path, and tracing is a sink the run loop
    feeds, not a second loop.

    Around the engine sits the one wave source, a pull {!cursor} over the
    instruction stream (§IV-C: one scan, a value table indexed by the
    sequential numbering of Fig. 5), and the one run loop {!drive}.  The
    value table is one row slab, so ciphertexts stay rows from a run's
    inputs to its results, and a placement — cpu, par, dist, each request
    of the service — only moves rows: it decides where a {!binding}'s
    [run_wave] executes. *)

(** {1 Waves} *)

type wave = {
  cells : Pytfhe_tfhe.Gates.batch_cell array;  (** One cell per job. *)
  rows : Pytfhe_tfhe.Lwe_array.t;
      (** Row [i]: job [i]'s combined input, as
          {!Pytfhe_tfhe.Gates.bootstrap_batch} takes it. *)
}
(** A classic gate is {!Pytfhe_tfhe.Gates.gate_cell} over its plan's
    {!Pytfhe_tfhe.Gates.combine} of its operands' classic views; an
    arity-1 LUT cell is {!Pytfhe_tfhe.Gates.sign_cell} over its operand's
    classic view; an arity-2/3 rotation group is a
    {!Pytfhe_tfhe.Gates.Cell_lut} with every table over one operand tuple
    (one output per table) over the {!Pytfhe_tfhe.Gates.lut_combine} of
    the raw lutdom operands. *)

val length : wave -> int
(** Jobs in the wave. *)

val outputs : wave -> int
(** Rows the wave produces: one per sign cell, one per table of a LUT
    cell. *)

val sub : wave -> pos:int -> len:int -> wave
(** Jobs [pos, pos + len); the rows are a non-copying slice. *)

val split : wave -> int -> (wave * int) array
(** [split w k]: [k] contiguous parts of [w] — part [d] holds jobs
    [d·width/k, (d+1)·width/k) — each with the position of its first
    output among [w]'s. *)

(** {1 The engine} *)

type engine
(** A {!Pytfhe_tfhe.Gates.batch_context}: single-domain state, like the
    context it is. *)

val engine : Pytfhe_tfhe.Gates.cloud_keyset -> cap:int -> engine
(** An engine launching at most [cap] jobs at a time.  Raises
    [Invalid_argument] when [cap < 1]. *)

val capacity : engine -> int

val exec : engine -> wave -> Pytfhe_tfhe.Lwe_array.t -> unit
(** [exec e w dst] runs [w] through {!Pytfhe_tfhe.Gates.bootstrap_batch}
    in launches of at most [capacity] jobs over slices of [w]'s own rows,
    taken in job order, so gates and groups share launches (a wave of [w]
    jobs takes ⌈w / capacity⌉), and copies each launch's outputs into
    [dst]: flat in job order, job [i]'s outputs right after those of jobs
    [0..i-1].  Ciphertext-bit-exact with the scalar [Gates] API for any
    capacity.  The cells are trusted: the cursor and the [DJOB] decoder
    only make the ones the kernel runs.  Raises [Invalid_argument] unless
    [dst] holds {!outputs}[ w] rows of the keyset's dimension. *)

val counters : engine -> Pytfhe_tfhe.Gates.batch_counters
(** Cumulative launch and key-traffic counters of the engine. *)

(** {1 The cursor} *)

type source =
  | Bytes of bytes  (** A resident assembled binary. *)
  | Pull of (unit -> bytes option)
      (** A binary pulled in chunks of any framing, e.g.
          {!Pytfhe_circuit.Binary.read_source}. *)
  | Netlist of Pytfhe_circuit.Netlist.t
      (** A netlist read in id order as the instructions its ids would
          assemble to; its constants are trivial ciphertexts, not
          bootstrapped gates. *)

type cursor
(** One program's execution state: the value table (one
    {!Pytfhe_tfhe.Lwe_array} slab indexed by stream index, lutdom values
    kept lutdom and read by classic consumers through their 4x − 1/8
    view), the current segment and the current wave. *)

val cursor :
  ?window:int -> Pytfhe_tfhe.Gates.cloud_keyset -> source -> Pytfhe_tfhe.Lwe.sample array -> cursor
(** Start a run of [source] on [inputs] (input-declaration order).
    Instructions are read as needed: bootstrapped gates and LUT cells are
    queued by level (1 + the highest operand level within the segment)
    until the segment holds [window] (default 32768) bootstraps or the
    source ends; the segment then runs level by level, so queued work stays
    bounded however long the program is.  NOTs are evaluated at once when
    their operand is computed, right after its level otherwise.  A level's
    LUT cells over one operand tuple form one rotation group.

    Every instruction is read through {!Pytfhe_circuit.Binary.reader} and
    {!Pytfhe_circuit.Binary.Check} (a netlist's constant enters the
    checker as a classic value at the next index), so the cursor accepts
    exactly the programs {!Pytfhe_circuit.Binary.parse} accepts.  Raises,
    here or from {!deliver} when a later segment is read:
    [Pytfhe_util.Wire.Corrupt] on a malformed stream; [Invalid_argument]
    when the number of input declarations is not [Array.length inputs],
    an input's dimension is not the keyset's or [window < 1]. *)

val current : cursor -> wave
(** The current wave; never empty until {!finished}.  Its rows are the
    cursor's own combine of value-table rows, valid until {!deliver}. *)

val deliver : cursor -> Pytfhe_tfhe.Lwe_array.t -> unit
(** Copy the current wave's output rows (flat, job order) into their
    value-table rows, run the NOTs that wait on them (row negations of
    classic views, written into the table) and move to the next wave.
    Raises [Invalid_argument] unless there is one row per output, of the
    keyset's dimension. *)

val finished : cursor -> bool

val results : cursor -> Pytfhe_tfhe.Lwe.sample array
(** The outputs, classic views in declaration order, once {!finished}:
    the one place a run turns rows back into records. *)

(** {1 The run loop} *)

type stats = {
  bootstraps : int;  (** Jobs executed. *)
  nots : int;
  wave_wall : float array;  (** Wall seconds per executed wave. *)
  wave_width : int array;  (** Jobs per executed wave. *)
}

type 'stats binding = {
  run_wave : wave -> Pytfhe_tfhe.Lwe_array.t;
      (** Every job's outputs, flat in job order ({!exec}'s layout). *)
  capacity : unit -> int;  (** Jobs one [run_wave] call launches at once. *)
  workers : int;  (** Domains or processes. *)
  track : string;  (** The trace track of {!drive}'s wave spans. *)
  probe : Pytfhe_obs.Trace.track -> unit;  (** The placement's per-wave counters. *)
  finish : start:float -> stats -> 'stats;
      (** The placement's own stats of a run that started at [start]. *)
  release : unit -> unit;  (** Free what the binding holds. *)
}
(** A placement bound to one cloud keyset: where waves execute.  It only
    moves rows — slices of a wave out, output rows back. *)

val drive :
  obs:Pytfhe_obs.Trace.sink ->
  'stats binding ->
  cursor ->
  Pytfhe_tfhe.Lwe.sample array * stats
(** Run a cursor to the end, one [run_wave] per wave.  With an enabled
    [obs] each wave gets a span on the binding's track, the standard
    counters ({!Exec_obs.wave_counters}) and the binding's [probe]; the
    noise gauges are sampled once. *)
