(** BFS levelization of a TFHE program DAG — the paper's Algorithm 1.

    Nodes whose fan-ins are all ready form the next wave of computable
    gates; the wave index is the node's level.  Level widths are the
    parallelism profile every backend scheduler consumes: wide levels scale
    across workers or streaming multiprocessors, narrow ones are the serial
    tail the paper blames for the modest speedups of NRSolver-style
    benchmarks.

    [Not] gates are noiseless and evaluated inline, so they do not advance
    the level and do not count toward widths. *)

type schedule = {
  level : int array;  (** Wave index per node (inputs and constants: 0). *)
  depth : int;  (** Number of waves = critical path in bootstrapped gates. *)
  widths : int array;  (** [widths.(l-1)]: bootstrapped gates in wave [l]. *)
  total_bootstraps : int;
}

val run : Netlist.t -> schedule
(** Levelize a netlist in one topological sweep. *)

(** Incremental levelization for the streaming compiler: the placement rule
    of {!run}, maintained node by node as construction proceeds, so each
    node's wave is known the moment it is built and no final sweep over the
    whole DAG is needed. *)
module Inc : sig
  type t

  val create : Netlist.t -> t

  val note : t -> Netlist.id -> unit
  (** Place one node.  Ids must arrive in ascending order starting at 0
      (raise [Invalid_argument] otherwise) — i.e. straight from
      {!Netlist.set_observer}. *)

  val catch_up : t -> unit
  (** Place every node built since the last call ([note] driven by a loop
      rather than an observer). *)

  val level : t -> Netlist.id -> int
  (** Level of an already-placed node. *)

  val depth : t -> int
  val total_bootstraps : t -> int

  val schedule : t -> schedule
  (** Snapshot as a {!schedule} (after an implicit {!catch_up}); agrees
      exactly with [run net] over the same netlist. *)
end

val max_width : schedule -> int
(** Widest wave — the peak exploitable parallelism. *)

val average_width : schedule -> float
(** Mean bootstrapped gates per wave ([0.] for gate-free circuits). *)

val serial_fraction : schedule -> float
(** Fraction of waves of width 1 — a proxy for how serial the workload is. *)
