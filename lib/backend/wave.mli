(** The wave engine: the one place the executors bootstrap.

    Every backend runs the same unit of work — one level of the paper's
    BFS schedule (Alg. 1), the GPU backend's CUDA-Graph batch.  A wave is
    an array of {!job}s; {!exec} runs it on a per-domain {!engine} in
    launches of at most the engine's capacity and returns the outputs in
    job order.  Scalar execution is capacity 1, not a second path, and
    tracing is a sink the run loop feeds, not a second loop.

    Around the engine sits the one wave source, a pull {!cursor} over the
    instruction stream (§IV-C: one scan, a value table indexed by the
    sequential numbering of Fig. 5), and the one run loop {!drive}.  A
    placement — cpu, par, dist, each request of the service — only
    decides where a {!binding}'s [run_wave] executes. *)

(** {1 Jobs} *)

type job =
  | Gate of {
      gate : Pytfhe_circuit.Gate.t;
      a : Pytfhe_tfhe.Lwe.sample;
      b : Pytfhe_tfhe.Lwe.sample;
    }
      (** A classic bootstrapped gate ([Not] is never a job) over the
          classic views of its operands; one output. *)
  | Group of {
      arity : int;
      operands : Pytfhe_tfhe.Lwe.sample array;
      tables : int array;
    }
      (** One LUT rotation group: every table over one operand tuple shares
          one blind rotation, one output per table.  An arity-1 cell is a
          one-table group over a classic view; arity-2/3 operands are raw
          lutdom ciphertexts. *)

val outputs : job -> int
(** Outputs a job produces: 1 for a gate, one per table for a group. *)

(** {1 The engine} *)

type engine
(** A {!Pytfhe_tfhe.Gates.batch_context} plus struct-of-arrays staging.
    Single-domain state, like the context it wraps. *)

val engine : Pytfhe_tfhe.Gates.cloud_keyset -> cap:int -> engine
(** An engine launching at most [cap] jobs at a time.  Raises
    [Invalid_argument] when [cap < 1]. *)

val capacity : engine -> int

val exec : engine -> job array -> Pytfhe_tfhe.Lwe.sample array
(** Run a wave through {!Pytfhe_tfhe.Gates.bootstrap_batch} in launches of
    at most [capacity] jobs taken in job order, so gates and groups share
    launches (a wave of [w] jobs takes ⌈w / capacity⌉).  Outputs are flat
    in job order (job [i]'s {!outputs} right after those of jobs
    [0..i-1]).  Ciphertext-bit-exact with the scalar [Gates] API for any
    capacity.  Raises [Invalid_argument] on a [Not] gate, an arity outside
    1–3, an operand count that is not the arity, an arity-1 group without
    exactly one table or a group without tables. *)

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
(** One program's execution state: the value table, the current segment
    and the current wave's jobs. *)

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
    when the number of input declarations is not [Array.length inputs] or
    [window < 1]. *)

val jobs : cursor -> job array
(** The current wave's jobs; never empty until {!finished}. *)

val deliver : cursor -> Pytfhe_tfhe.Lwe.sample array -> unit
(** Store the current wave's outputs (flat, job order), run the NOTs that
    wait on them and move to the next wave. *)

val finished : cursor -> bool

val results : cursor -> Pytfhe_tfhe.Lwe.sample array
(** The outputs, classic views in declaration order, once {!finished}. *)

(** {1 The run loop} *)

type stats = {
  bootstraps : int;  (** Jobs executed. *)
  nots : int;
  wave_wall : float array;  (** Wall seconds per executed wave. *)
  wave_width : int array;  (** Jobs per executed wave. *)
}

type 'stats binding = {
  run_wave : job array -> Pytfhe_tfhe.Lwe.sample array;
      (** Every job's outputs, flat in job order. *)
  capacity : unit -> int;  (** Jobs one [run_wave] call launches at once. *)
  workers : int;  (** Domains or processes. *)
  track : string;  (** The trace track of {!drive}'s wave spans. *)
  probe : Pytfhe_obs.Trace.track -> unit;  (** The placement's per-wave counters. *)
  finish : start:float -> stats -> 'stats;
      (** The placement's own stats of a run that started at [start]. *)
  release : unit -> unit;  (** Free what the binding holds. *)
}
(** A placement bound to one cloud keyset: where waves execute. *)

val drive :
  obs:Pytfhe_obs.Trace.sink ->
  'stats binding ->
  cursor ->
  Pytfhe_tfhe.Lwe.sample array * stats
(** Run a cursor to the end, one [run_wave] per wave.  With an enabled
    [obs] each wave gets a span on the binding's track, the standard
    counters ({!Exec_obs.wave_counters}) and the binding's [probe]; the
    noise gauges are sampled once. *)
