(* The wave engine, the instruction cursor and the run loop.

   [exec] is the only code in the executors that bootstraps: a wave's jobs
   are combined into SoA staging rows and run, gates and LUT rotation
   groups alike, through the one batched kernel in launches of at most
   [cap] jobs, in job order.  Per job the combine -> bootstrap ->
   key-switch sequence is the scalar API's, so outputs are
   ciphertext-bit-exact with it for every capacity and every split of a
   wave across engines. *)

module Netlist = Pytfhe_circuit.Netlist
module Gate = Pytfhe_circuit.Gate
module Binary = Pytfhe_circuit.Binary
module Trace = Pytfhe_obs.Trace
open Pytfhe_tfhe

type job =
  | Gate of { gate : Gate.t; a : Lwe.sample; b : Lwe.sample }
  | Group of { arity : int; operands : Lwe.sample array; tables : int array }

let outputs = function Gate _ -> 1 | Group { tables; _ } -> Array.length tables

let offsets jobs =
  let o = Array.make (Array.length jobs + 1) 0 in
  Array.iteri (fun i j -> o.(i + 1) <- o.(i) + outputs j) jobs;
  o

(* ------------------------------------------------------------------ *)
(* The engine                                                          *)
(* ------------------------------------------------------------------ *)

type engine = { bc : Gates.batch_context; cap : int; n : int; staging : Lwe_array.t }

let engine cloud ~cap =
  if cap < 1 then invalid_arg "Wave.engine: cap must be >= 1";
  let n = cloud.Gates.cloud_params.Params.lwe.Params.n in
  { bc = Gates.batch_context cloud ~cap; cap; n; staging = Lwe_array.create ~n cap }

let capacity e = e.cap
let counters e = Gates.batch_counters e.bc

let plan_of = function
  | Gate.Nand -> Gates.nand_plan
  | Gate.And -> Gates.and_plan
  | Gate.Or -> Gates.or_plan
  | Gate.Nor -> Gates.nor_plan
  | Gate.Xnor -> Gates.xnor_plan
  | Gate.Xor -> Gates.xor_plan
  | Gate.Andny -> Gates.andny_plan
  | Gate.Andyn -> Gates.andyn_plan
  | Gate.Orny -> Gates.orny_plan
  | Gate.Oryn -> Gates.oryn_plan
  | Gate.Not -> invalid_arg "Wave.exec: Not is not a bootstrapped gate"

(* Stage a job's combined input in staging row [row] and return its cell. *)
let stage e row = function
  | Gate { gate; a; b } ->
    Lwe_array.set e.staging row (Gates.combine ~n:e.n (plan_of gate) a b);
    Gates.gate_cell
  | Group { arity = 1; tables = [| table |]; operands = [| x |] } ->
    Lwe_array.set e.staging row x;
    Gates.sign_cell ~table
  | Group { arity = 1; _ } ->
    invalid_arg "Wave.exec: an arity-1 group takes one operand and one table"
  | Group { tables = [||]; _ } -> invalid_arg "Wave.exec: a group without tables"
  | Group { arity; operands; tables } ->
    Lwe_array.set e.staging row (Gates.lut_combine ~n:e.n ~arity operands);
    Gates.Cell_lut { arity; tables }

let exec e jobs =
  let off = offsets jobs in
  let out = Array.make off.(Array.length jobs) { Lwe.a = [||]; b = 0 } in
  let pos = ref 0 in
  while !pos < Array.length jobs do
    let len = min e.cap (Array.length jobs - !pos) in
    let cells = Array.init len (fun row -> stage e row jobs.(!pos + row)) in
    let rows = Gates.bootstrap_batch e.bc cells (Lwe_array.slice e.staging ~pos:0 ~len) in
    Array.blit (Lwe_array.to_samples rows) 0 out off.(!pos) (Lwe_array.length rows);
    pos := !pos + len
  done;
  out

(* ------------------------------------------------------------------ *)
(* The cursor                                                          *)
(* ------------------------------------------------------------------ *)

type source = Bytes of bytes | Pull of (unit -> bytes option) | Netlist of Netlist.t

(* What a source yields: an instruction or, from a netlist only, a
   constant — a trivial ciphertext at the next index. *)
type item = Inst of Binary.instruction | Const of bool

(* A netlist read in id order as the binary its node ids would assemble
   to (node id = index - 1), outputs last. *)
let netlist_items net =
  let id = ref (-1) and outs = ref (Netlist.outputs net) in
  fun () ->
    let i = !id in
    incr id;
    if i < 0 then Some (Inst (Binary.Header { gate_total = Binary.streamed_gate_total }))
    else if i < Netlist.node_count net then
      Some
        (match Netlist.kind net i with
        | Netlist.Input _ -> Inst (Binary.Input_decl { index = i + 1 })
        | Netlist.Const b -> Const b
        | Netlist.Gate (gate, a, b) -> Inst (Binary.Gate_inst { gate; in0 = a + 1; in1 = b + 1 })
        | Netlist.Lut { table; ins } -> Inst (Binary.Lut_inst { table; ins = Array.map succ ins }))
    else
      match !outs with
      | (_, o) :: rest ->
        outs := rest;
        Some (Inst (Binary.Output_decl { index = o + 1 }))
      | [] -> None

let rec items = function
  | Netlist net -> netlist_items net
  | Bytes b -> items (Pull (Binary.bytes_source b))
  | Pull read ->
    let next = Binary.reader read in
    fun () -> Option.map (fun i -> Inst i) (next ())

(* An instruction waiting in the current segment. *)
type pending =
  | P_gate of { gate : Gate.t; in0 : int; in1 : int; dst : int }
  | P_lut of { table : int; ins : int array; dst : int }
  | P_not of { src : int; dst : int }

(* A value-table slot: the segment level that computes it, or the value. *)
type slot = Pending of int | Ready of Lwe.sample

type cursor = {
  cloud : Gates.cloud_keyset;
  next_item : unit -> item option;
  check : Binary.Check.t;  (* the stream rules; which values are lutdom *)
  inputs : Lwe.sample array;
  window : int;
  mutable slots : slot array;  (* the value table, by stream index *)
  mutable next : int;  (* index of the next value *)
  mutable outputs : int list;  (* reversed *)
  mutable eof : bool;
  mutable seg : pending list array;  (* the segment, per level (index l - 1), reversed *)
  mutable depth : int;
  mutable queued : int;  (* bootstraps in the segment *)
  mutable level : int;  (* the level whose jobs are current *)
  mutable jobs : job array;
  mutable dsts : int array;
  mutable nots : int;
}

let grow a size fill =
  let b = Array.make (max (2 * Array.length a) size) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* The checker has already refused every reference to an unassigned
   index. *)
let level_of c index = match c.slots.(index) with Ready _ -> 0 | Pending level -> level
let raw c index = match c.slots.(index) with Ready v -> v | Pending _ -> assert false

(* LUT cells produce lutdom ciphertexts; classic consumers (gate operands,
   arity-1 cells, NOTs, outputs) read them through the free, exact
   lutdom -> classic view. *)
let classic c index =
  if Binary.Check.is_lut c.check index then Gates.lut_to_classic (raw c index) else raw c index

let set c dst v = c.slots.(dst) <- Ready v

(* The next index's slot. *)
let assign c slot =
  if c.next >= Array.length c.slots then c.slots <- grow c.slots (c.next + 16) slot;
  c.slots.(c.next) <- slot;
  c.next <- c.next + 1

let enqueue c l p =
  if l > Array.length c.seg then c.seg <- grow c.seg l [];
  c.seg.(l - 1) <- p :: c.seg.(l - 1)

(* Level = 1 + the highest operand level within the segment. *)
let queue c l p =
  enqueue c l p;
  c.depth <- max c.depth l;
  c.queued <- c.queued + 1;
  assign c (Pending l)

let feed c = function
  | Const b ->
    Binary.Check.constant c.check;
    assign c (Ready (Gates.constant c.cloud b))
  | Inst inst -> (
    Binary.Check.feed c.check inst;
    match inst with
    | Binary.Header _ -> ()
    | Binary.Input_decl _ ->
      let k = Binary.Check.inputs c.check - 1 in
      if k >= Array.length c.inputs then
        invalid_arg "Wave.cursor: more input declarations than inputs";
      assign c (Ready c.inputs.(k))
    | Binary.Gate_inst { gate; in0; _ } when Gate.is_unary gate ->
      (* NOT is noiseless: evaluated at once when its operand is computed,
         right after the operand's level otherwise. *)
      let base = level_of c in0 in
      if base = 0 then begin
        assign c (Ready (Lwe.neg (classic c in0)));
        c.nots <- c.nots + 1
      end
      else begin
        enqueue c base (P_not { src = in0; dst = c.next });
        assign c (Pending base)
      end
    | Binary.Gate_inst { gate; in0; in1 } ->
      queue c
        (1 + max (level_of c in0) (level_of c in1))
        (P_gate { gate; in0; in1; dst = c.next })
    | Binary.Lut_inst { table; ins } ->
      let base = Array.fold_left (fun acc idx -> max acc (level_of c idx)) 0 ins in
      queue c (1 + base) (P_lut { table; ins; dst = c.next })
    | Binary.Output_decl { index } -> c.outputs <- index :: c.outputs)

(* Read instructions until the segment holds [window] bootstraps or the
   source ends. *)
let rec fill c =
  if c.queued < c.window then
    match c.next_item () with
    | Some it ->
      feed c it;
      fill c
    | None ->
      c.eof <- true;
      let declared = Binary.Check.inputs c.check in
      if declared <> Array.length c.inputs then
        invalid_arg
          (Printf.sprintf "Wave.cursor: the program declares %d inputs, %d given" declared
             (Array.length c.inputs))

(* A level's jobs in arrival order, and the destination of every output
   in flat output order.  Multi-input cells over the same operand tuple
   join one rotation group at the first one's place (the indicators depend
   only on the operands). *)
let gather c pending =
  let groups = Hashtbl.create 8 and slots = ref [] in
  List.iter
    (function
      | P_gate { gate; in0; in1; dst } ->
        slots := `Job (Gate { gate; a = classic c in0; b = classic c in1 }, dst) :: !slots
      | P_lut { table; ins = [| i |]; dst } ->
        let operands = [| classic c i |] in
        slots := `Job (Group { arity = 1; operands; tables = [| table |] }, dst) :: !slots
      | P_lut { table; ins; dst } -> (
        match Hashtbl.find_opt groups ins with
        | Some members -> members := (table, dst) :: !members
        | None ->
          let members = ref [ (table, dst) ] in
          Hashtbl.add groups ins members;
          slots := `Group (ins, members) :: !slots)
      | P_not _ -> ())
    pending;
  let slots = Array.of_list (List.rev !slots) in
  let jobs =
    Array.map
      (function
        | `Job (job, _) -> job
        | `Group (ins, members) ->
          let tables = Array.of_list (List.rev_map fst !members) in
          Group { arity = Array.length ins; operands = Array.map (raw c) ins; tables })
      slots
  in
  let dsts =
    Array.map
      (function
        | `Job (_, dst) -> [| dst |]
        | `Group (_, members) -> Array.of_list (List.rev_map snd !members))
      slots
  in
  (jobs, Array.concat (Array.to_list dsts))

(* Make the current level's jobs current; once the segment is drained,
   read the next one first.  Every level of a segment has a job: a
   level-l instruction has an operand pending at level l - 1. *)
let rec load c =
  if c.level <= c.depth then begin
    let jobs, dsts = gather c (List.rev c.seg.(c.level - 1)) in
    c.jobs <- jobs;
    c.dsts <- dsts
  end
  else if c.eof then begin
    c.jobs <- [||];
    c.dsts <- [||]
  end
  else begin
    c.level <- 1;
    c.depth <- 0;
    c.queued <- 0;
    fill c;
    load c
  end

let cursor ?(window = 1 lsl 15) cloud source inputs =
  if window < 1 then invalid_arg "Wave.cursor: window must be positive";
  let c =
    {
      cloud;
      next_item = items source;
      check = Binary.Check.create ();
      inputs;
      window;
      slots = [||];
      next = 1;
      outputs = [];
      eof = false;
      seg = [||];
      depth = 0;
      queued = 0;
      level = 1;
      jobs = [||];
      dsts = [||];
      nots = 0;
    }
  in
  load c;
  c

let jobs c = c.jobs
let finished c = c.eof && c.level > c.depth

let deliver c outs =
  if finished c then invalid_arg "Wave.deliver: the cursor is finished";
  if Array.length outs <> Array.length c.dsts then
    invalid_arg "Wave.deliver: output count does not match the wave";
  Array.iteri (fun i dst -> set c dst outs.(i)) c.dsts;
  (* This level's NOTs may read its fresh results and each other, in
     arrival order. *)
  List.iter
    (function
      | P_not { src; dst } ->
        set c dst (Lwe.neg (classic c src));
        c.nots <- c.nots + 1
      | P_gate _ | P_lut _ -> ())
    (List.rev c.seg.(c.level - 1));
  c.seg.(c.level - 1) <- [];
  c.level <- c.level + 1;
  load c

let results c = Array.of_list (List.rev_map (classic c) c.outputs)

(* ------------------------------------------------------------------ *)
(* The run loop                                                        *)
(* ------------------------------------------------------------------ *)

type stats = { bootstraps : int; nots : int; wave_wall : float array; wave_width : int array }

type 'stats binding = {
  run_wave : job array -> Lwe.sample array;
  capacity : unit -> int;
  workers : int;
  track : string;
  probe : Trace.track -> unit;
  finish : start:float -> stats -> 'stats;
  release : unit -> unit;
}

let drive ~obs b c =
  let p = c.cloud.Gates.cloud_params in
  let track = Trace.new_track obs ~name:b.track in
  let traced = Trace.enabled obs in
  if traced then Exec_obs.noise_gauges track p;
  let walls = ref [] and widths = ref [] in
  while not (finished c) do
    let jobs = c.jobs and nots0 = c.nots in
    let t0 = Trace.now obs in
    let alloc0 = if traced then Exec_obs.alloc_words () else 0.0 in
    let outs = b.run_wave jobs in
    deliver c outs;
    let t1 = Trace.now obs in
    walls := (t1 -. t0) :: !walls;
    widths := Array.length jobs :: !widths;
    if traced then begin
      let name = Printf.sprintf "wave %d" (List.length !walls - 1) in
      Trace.span track ~cat:"wave" ~name ~t0 ~t1;
      Exec_obs.wave_counters track p ~jobs:(Array.length jobs) ~outputs:(Array.length outs)
        ~nots:(c.nots - nots0)
        ~alloc_words:(Exec_obs.alloc_words () -. alloc0);
      b.probe track;
      Trace.drain obs
    end
  done;
  let wave_width = Array.of_list (List.rev !widths) in
  ( results c,
    {
      bootstraps = Array.fold_left ( + ) 0 wave_width;
      nots = c.nots;
      wave_wall = Array.of_list (List.rev !walls);
      wave_width;
    } )
