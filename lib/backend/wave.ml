(* The wave engine, the instruction cursor and the run loop.

   [exec] is the only code in the executors that bootstraps.  A wave is the
   kernel's own input — one batch cell and one combined row per job — and
   runs, gates and LUT rotation groups alike, through the one batched
   kernel in launches of at most [cap] jobs, in job order.  The cursor
   combines each row straight from its value table, one Lwe_array slab,
   with the row maps the scalar API uses, so outputs are
   ciphertext-bit-exact with it for every capacity and every split of a
   wave across engines.  Records appear only where a run starts (its
   inputs) and ends (its results). *)

module Netlist = Pytfhe_circuit.Netlist
module Gate = Pytfhe_circuit.Gate
module Binary = Pytfhe_circuit.Binary
module Trace = Pytfhe_obs.Trace
open Pytfhe_tfhe

type wave = { cells : Gates.batch_cell array; rows : Lwe_array.t }

let length w = Array.length w.cells
let outputs w = Array.fold_left (fun acc cell -> acc + Gates.cell_outputs cell) 0 w.cells
let sub w ~pos ~len = { cells = Array.sub w.cells pos len; rows = Lwe_array.slice w.rows ~pos ~len }

let split w parts =
  let width = length w and at = ref 0 in
  Array.init parts (fun d ->
      let lo = d * width / parts and hi = (d + 1) * width / parts in
      let part = sub w ~pos:lo ~len:(hi - lo) in
      let first = !at in
      at := first + outputs part;
      (part, first))

(* ------------------------------------------------------------------ *)
(* The engine                                                          *)
(* ------------------------------------------------------------------ *)

type engine = { bc : Gates.batch_context; cap : int }

let engine cloud ~cap =
  if cap < 1 then invalid_arg "Wave.engine: cap must be >= 1";
  { bc = Gates.batch_context cloud ~cap; cap }

let capacity e = e.cap
let counters e = Gates.batch_counters e.bc

(* Launches over slices of the wave's own rows; each launch's outputs are
   copied out of the context's scratch before the next one. *)
let exec e w dst =
  if Lwe_array.length dst <> outputs w then invalid_arg "Wave.exec: one destination row per output";
  let pos = ref 0 and at = ref 0 in
  while !pos < length w do
    let launch = sub w ~pos:!pos ~len:(min e.cap (length w - !pos)) in
    let outs = Gates.bootstrap_batch e.bc launch.cells launch.rows in
    Lwe_array.blit ~src:outs ~src_pos:0 ~dst ~dst_pos:!at ~len:(Lwe_array.length outs);
    pos := !pos + length launch;
    at := !at + Lwe_array.length outs
  done

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

type cursor = {
  cloud : Gates.cloud_keyset;
  n : int;
  next_item : unit -> item option;
  check : Binary.Check.t;  (* the stream rules; which values are lutdom *)
  inputs : Lwe.sample array;
  window : int;
  mutable slab : Lwe_array.t;  (* the value table: row i holds stream index i *)
  views : Lwe_array.t;  (* two rows: a gate's operand views *)
  mutable levels : int array;  (* per index: the segment level computing it, 0 once written *)
  mutable next : int;  (* index of the next value *)
  mutable outputs : int list;  (* reversed *)
  mutable eof : bool;
  mutable seg : pending list array;  (* the segment, per level (index l - 1), reversed *)
  mutable depth : int;
  mutable queued : int;  (* bootstraps in the segment *)
  mutable level : int;  (* the level whose wave is current *)
  mutable wave : wave;
  mutable dsts : int array;  (* the value index of each output of the wave *)
  mutable nots : int;
}

let grow a size fill =
  let b = Array.make (max (2 * Array.length a) size) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* Claim the next index, computed by segment level [l] (0: its row is
   written at once).  The slab and the level table double together. *)
let claim c l =
  let i = c.next in
  if i >= Array.length c.levels then begin
    c.levels <- grow c.levels (i + 16) 0;
    c.slab <- Lwe_array.grow c.slab (Array.length c.levels)
  end;
  c.levels.(i) <- l;
  c.next <- i + 1;
  i

(* LUT cells produce lutdom ciphertexts; classic consumers (gate operands,
   arity-1 cells, NOTs, outputs) read them through the free, exact
   lutdom -> classic view.  The checker has already refused every
   reference to an unassigned index. *)
let classic_into c index ~dst ~drow =
  if Binary.Check.is_lut c.check index then Gates.lut_to_classic ~dst ~drow c.slab index
  else Lwe_array.blit ~src:c.slab ~src_pos:index ~dst ~dst_pos:drow ~len:1

(* NOT is noiseless: the negated classic view, written into the slab. *)
let negate c ~src ~dst =
  classic_into c src ~dst:c.slab ~drow:dst;
  Lwe_array.neg_into ~dst:c.slab ~drow:dst ~a:c.slab ~arow:dst;
  c.levels.(dst) <- 0;
  c.nots <- c.nots + 1

let enqueue c l p =
  if l > Array.length c.seg then c.seg <- grow c.seg l [];
  c.seg.(l - 1) <- p :: c.seg.(l - 1)

(* Level = 1 + the highest operand level within the segment. *)
let queue c l p =
  enqueue c l p;
  c.depth <- max c.depth l;
  c.queued <- c.queued + 1;
  ignore (claim c l)

let feed c = function
  | Const b ->
    Binary.Check.constant c.check;
    let mu = Params.mu c.cloud.Gates.cloud_params in
    let i = claim c 0 in
    Lwe_array.set_trivial c.slab i (if b then mu else Torus.neg mu)
  | Inst inst -> (
    Binary.Check.feed c.check inst;
    match inst with
    | Binary.Header _ -> ()
    | Binary.Input_decl _ ->
      let k = Binary.Check.inputs c.check - 1 in
      if k >= Array.length c.inputs then
        invalid_arg "Wave.cursor: more input declarations than inputs";
      let i = claim c 0 in
      Lwe_array.set c.slab i c.inputs.(k)
    | Binary.Gate_inst { gate; in0; _ } when Gate.is_unary gate ->
      (* Evaluated at once when its operand is computed, right after the
         operand's level otherwise. *)
      let base = c.levels.(in0) in
      let dst = claim c base in
      if base = 0 then negate c ~src:in0 ~dst else enqueue c base (P_not { src = in0; dst })
    | Binary.Gate_inst { gate; in0; in1 } ->
      queue c
        (1 + max c.levels.(in0) c.levels.(in1))
        (P_gate { gate; in0; in1; dst = c.next })
    | Binary.Lut_inst { table; ins } ->
      let base = Array.fold_left (fun acc idx -> max acc c.levels.(idx)) 0 ins in
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
  | Gate.Not -> assert false (* a NOT is a row negation, never a job *)

(* A level's wave in arrival order, and the destination of every output
   in flat output order.  Multi-input cells over the same operand tuple
   join one rotation group at the first one's place (the indicators depend
   only on the operands). *)
let gather c pending =
  let groups = Hashtbl.create 8 and jobs = ref [] in
  List.iter
    (function
      | P_gate { gate; in0; in1; dst } -> jobs := `Gate (gate, in0, in1, dst) :: !jobs
      | P_lut { table; ins = [| i |]; dst } -> jobs := `Sign (table, i, dst) :: !jobs
      | P_lut { table; ins; dst } -> (
        match Hashtbl.find_opt groups ins with
        | Some members -> members := (table, dst) :: !members
        | None ->
          let members = ref [ (table, dst) ] in
          Hashtbl.add groups ins members;
          jobs := `Group (ins, members) :: !jobs)
      | P_not _ -> ())
    pending;
  let jobs = Array.of_list (List.rev !jobs) in
  let rows = Lwe_array.create ~n:c.n (Array.length jobs) in
  let cells =
    Array.mapi
      (fun row -> function
        | `Gate (gate, in0, in1, _) ->
          classic_into c in0 ~dst:c.views ~drow:0;
          classic_into c in1 ~dst:c.views ~drow:1;
          Gates.combine (plan_of gate) ~dst:rows ~drow:row ~a:c.views ~arow:0 ~b:c.views ~brow:1;
          Gates.gate_cell
        | `Sign (table, i, _) ->
          classic_into c i ~dst:rows ~drow:row;
          Gates.sign_cell ~table
        | `Group (ins, members) ->
          Gates.lut_combine ~dst:rows ~drow:row c.slab ins;
          Gates.Cell_lut { arity = Array.length ins; tables = Array.of_list (List.rev_map fst !members) })
      jobs
  in
  let dsts =
    Array.map
      (function
        | `Gate (_, _, _, dst) | `Sign (_, _, dst) -> [| dst |]
        | `Group (_, members) -> Array.of_list (List.rev_map snd !members))
      jobs
  in
  ({ cells; rows }, Array.concat (Array.to_list dsts))

(* Make the current level's wave current; once the segment is drained,
   read the next one first.  Every level of a segment has a job: a
   level-l instruction has an operand pending at level l - 1. *)
let rec load c =
  if c.level <= c.depth then begin
    let wave, dsts = gather c (List.rev c.seg.(c.level - 1)) in
    c.wave <- wave;
    c.dsts <- dsts
  end
  else if c.eof then begin
    c.wave <- { cells = [||]; rows = Lwe_array.create ~n:c.n 0 };
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
  let n = cloud.Gates.cloud_params.Params.lwe.Params.n in
  let c =
    {
      cloud;
      n;
      next_item = items source;
      check = Binary.Check.create ();
      inputs;
      window;
      slab = Lwe_array.create ~n 0;
      views = Lwe_array.create ~n 2;
      levels = [||];
      next = 1;
      outputs = [];
      eof = false;
      seg = [||];
      depth = 0;
      queued = 0;
      level = 1;
      wave = { cells = [||]; rows = Lwe_array.create ~n 0 };
      dsts = [||];
      nots = 0;
    }
  in
  load c;
  c

let current c = c.wave
let finished c = c.eof && c.level > c.depth

let deliver c outs =
  if finished c then invalid_arg "Wave.deliver: the cursor is finished";
  if Lwe_array.length outs <> Array.length c.dsts then
    invalid_arg "Wave.deliver: output count does not match the wave";
  Array.iteri
    (fun i dst ->
      Lwe_array.blit ~src:outs ~src_pos:i ~dst:c.slab ~dst_pos:dst ~len:1;
      c.levels.(dst) <- 0)
    c.dsts;
  (* This level's NOTs may read its fresh results and each other, in
     arrival order. *)
  List.iter
    (function P_not { src; dst } -> negate c ~src ~dst | P_gate _ | P_lut _ -> ())
    (List.rev c.seg.(c.level - 1));
  c.seg.(c.level - 1) <- [];
  c.level <- c.level + 1;
  load c

let results c =
  let row = Lwe_array.create ~n:c.n 1 in
  Array.of_list
    (List.rev_map
       (fun index ->
         classic_into c index ~dst:row ~drow:0;
         Lwe_array.get row 0)
       c.outputs)

(* ------------------------------------------------------------------ *)
(* The run loop                                                        *)
(* ------------------------------------------------------------------ *)

type stats = { bootstraps : int; nots : int; wave_wall : float array; wave_width : int array }

type 'stats binding = {
  run_wave : wave -> Lwe_array.t;
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
    let wave = c.wave and nots0 = c.nots in
    let t0 = Trace.now obs in
    let alloc0 = if traced then Exec_obs.alloc_words () else 0.0 in
    let outs = b.run_wave wave in
    deliver c outs;
    let t1 = Trace.now obs in
    walls := (t1 -. t0) :: !walls;
    widths := length wave :: !widths;
    if traced then begin
      let name = Printf.sprintf "wave %d" (List.length !walls - 1) in
      Trace.span track ~cat:"wave" ~name ~t0 ~t1;
      Exec_obs.wave_counters track p ~jobs:(length wave) ~outputs:(Lwe_array.length outs)
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
