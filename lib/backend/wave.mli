(** The wave engine: the one place the executors bootstrap.

    Every backend runs the same unit of work — one level of the paper's
    BFS schedule (Alg. 1), the GPU backend's CUDA-Graph batch.  A wave is
    an array of {!job}s; {!exec} runs it on a per-domain {!engine} in
    launches of at most the engine's capacity and returns the outputs in
    job order.  Scalar execution is capacity 1, not a second path, and
    tracing is a sink the wave sources feed, not a second loop.

    Around the engine sit the two wave sources, each parameterised by one
    [run_wave : job array -> Lwe.sample array]: the netlist source
    ({!run_netlist}, built on a {!cursor}) and the streamed-binary source
    {!Stream_exec.run_waves}.  A placement — cpu, par, dist, the service —
    only decides where [run_wave] executes. *)

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
(** Run a wave: gates through {!Pytfhe_tfhe.Gates.bootstrap_batch_rows},
    groups through {!Pytfhe_tfhe.Gates.bootstrap_batch_cells}, each in
    launches of at most [capacity], outputs flat in job order (job [i]'s
    {!outputs} right after those of jobs [0..i-1]).  Ciphertext-bit-exact
    with the scalar [Gates] API for any capacity.  Raises
    [Invalid_argument] on a [Not] gate, an arity outside 1–3, an operand
    count that is not the arity, an arity-1 group without exactly one table
    or a group without tables. *)

val counters : engine -> Pytfhe_tfhe.Gates.batch_counters
(** Cumulative launch and key-traffic counters of the engine. *)

(** {1 Wave-source plumbing} *)

type gather
(** Gathers one wave's jobs: LUT cells over the same operand tuple join one
    group, in first-appearance order. *)

val gather : unit -> gather

val add_gate :
  gather -> dst:int -> Pytfhe_circuit.Gate.t -> Pytfhe_tfhe.Lwe.sample ->
  Pytfhe_tfhe.Lwe.sample -> unit

val add_lut :
  gather -> dst:int -> table:int -> ins:int array -> Pytfhe_tfhe.Lwe.sample array -> unit
(** [ins] names the operands (netlist ids or stream indices) for grouping;
    the samples are the classic view for arity 1 and raw lutdom values
    otherwise. *)

val gathered : gather -> job array * int array
(** The wave's jobs, and the destination of every output in flat output
    order. *)

type stats = {
  bootstraps : int;  (** Jobs executed. *)
  nots : int;
  wave_wall : float array;  (** Wall seconds per wave. *)
  wave_width : int array;  (** Jobs per wave. *)
}

val wave_probe :
  Pytfhe_obs.Trace.sink -> Pytfhe_obs.Trace.track -> Pytfhe_tfhe.Params.t ->
  probe:(Pytfhe_obs.Trace.track -> unit) -> jobs:int -> outputs:int -> nots:int ->
  alloc0:float -> unit
(** Emit one executed wave's counters on [track] (jobs as [bootstraps] and
    [wave_width], outputs as [key_switches]), the placement's own [probe],
    then drain — the sink must be enabled and every writer at the wave
    barrier. *)

(** {1 The netlist source} *)

type cursor
(** One netlist's execution state: value table, constants, the levelized
    waves and the current wave's jobs. *)

val cursor :
  ?schedule:Pytfhe_circuit.Levelize.schedule ->
  Pytfhe_tfhe.Gates.cloud_keyset ->
  Pytfhe_circuit.Netlist.t ->
  Pytfhe_tfhe.Lwe.sample array ->
  cursor
(** Start at wave 0.  Raises [Invalid_argument] when [inputs] does not
    match the netlist's input count. *)

val jobs : cursor -> job array
(** The current wave's jobs (empty on a NOT-only wave). *)

val deliver : cursor -> Pytfhe_tfhe.Lwe.sample array -> unit
(** Store the current wave's outputs (flat, job order), run its inline
    NOTs and move to the next wave. *)

val finished : cursor -> bool

val results : cursor -> Pytfhe_tfhe.Lwe.sample array
(** The outputs, classic views in declaration order, once {!finished}. *)

val run_netlist :
  obs:Pytfhe_obs.Trace.sink ->
  track:Pytfhe_obs.Trace.track ->
  ?probe:(Pytfhe_obs.Trace.track -> unit) ->
  run_wave:(job array -> Pytfhe_tfhe.Lwe.sample array) ->
  Pytfhe_tfhe.Gates.cloud_keyset ->
  Pytfhe_circuit.Netlist.t ->
  Pytfhe_tfhe.Lwe.sample array ->
  Pytfhe_tfhe.Lwe.sample array * stats
(** Drive a netlist wave by wave through [run_wave] (never called with an
    empty wave).  With an enabled [obs] each wave gets a span on [track]
    and {!wave_probe}'s counters; the noise gauges are sampled once. *)
