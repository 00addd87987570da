(* The wave engine and the netlist wave source.

   [exec] is the only code in the executors that bootstraps: a wave's
   classic gates are combined into SoA staging rows and run through the
   row-batched kernel, its LUT rotation groups through the mixed-job cell
   kernel, each in launches of at most [cap] jobs.  Per job the
   combine -> bootstrap -> key-switch sequence is the scalar API's, so
   outputs are ciphertext-bit-exact with it for every capacity and every
   split of a wave across engines. *)

module Netlist = Pytfhe_circuit.Netlist
module Gate = Pytfhe_circuit.Gate
module Levelize = Pytfhe_circuit.Levelize
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

let cell_of = function
  | Group { arity = 1; tables = [| table |]; operands = [| _ |] } -> Gates.sign_cell ~table
  | Group { arity = 1; _ } ->
    invalid_arg "Wave.exec: an arity-1 group takes one operand and one table"
  | Group { tables = [||]; _ } -> invalid_arg "Wave.exec: a group without tables"
  | Group { arity; tables; _ } -> Gates.Cell_lut { arity; tables }
  | Gate _ -> assert false

let placeholder = { Lwe.a = [||]; b = 0 }

let exec e jobs =
  let off = offsets jobs in
  let out = Array.make off.(Array.length jobs) placeholder in
  let indices p =
    Array.of_seq (Seq.filter (fun i -> p jobs.(i)) (Seq.init (Array.length jobs) Fun.id))
  in
  (* [launch] each slice of at most [cap] job indices; it fills [out]. *)
  let launches idx launch =
    let pos = ref 0 in
    while !pos < Array.length idx do
      let len = min e.cap (Array.length idx - !pos) in
      launch (Array.sub idx !pos len);
      pos := !pos + len
    done
  in
  launches (indices (function Gate _ -> true | Group _ -> false)) (fun idx ->
      Array.iteri
        (fun row i ->
          match jobs.(i) with
          | Gate { gate; a; b } ->
            Lwe_array.set e.staging row (Gates.combine ~n:e.n (plan_of gate) a b)
          | Group _ -> assert false)
        idx;
      let rows =
        Gates.bootstrap_batch_rows e.bc (Lwe_array.slice e.staging ~pos:0 ~len:(Array.length idx))
      in
      Array.iteri (fun row i -> out.(off.(i)) <- Lwe_array.get rows row) idx);
  launches (indices (function Group _ -> true | Gate _ -> false)) (fun idx ->
      let cells = Array.map (fun i -> cell_of jobs.(i)) idx in
      let combined =
        Array.map
          (fun i ->
            match jobs.(i) with
            | Group { arity = 1; operands; _ } -> operands.(0)
            | Group { arity; operands; _ } -> Gates.lut_combine ~n:e.n ~arity operands
            | Gate _ -> assert false)
          idx
      in
      let res = Gates.bootstrap_batch_cells e.bc cells combined in
      Array.iteri (fun k i -> Array.blit res.(k) 0 out off.(i) (Array.length res.(k))) idx);
  out

(* ------------------------------------------------------------------ *)
(* Gathering a wave's jobs                                             *)
(* ------------------------------------------------------------------ *)

(* One slot per job in first-appearance order; a group collects its
   members' tables and destinations as they arrive (both reversed). *)
type slot =
  | S_job of job * int
  | S_group of {
      arity : int;
      operands : Lwe.sample array;
      mutable tables : int list;
      mutable dsts : int list;
    }

type gather = { mutable slots : slot list; keys : (int * int * int * int, slot) Hashtbl.t }

let gather () = { slots = []; keys = Hashtbl.create 8 }
let add_gate bd ~dst gate a b = bd.slots <- S_job (Gate { gate; a; b }, dst) :: bd.slots

(* Multi-input cells over the same operand tuple share one blind rotation
   (the indicators depend only on the operands). *)
let add_lut bd ~dst ~table ~ins operands =
  let arity = Array.length ins in
  if arity = 1 then
    bd.slots <- S_job (Group { arity; operands; tables = [| table |] }, dst) :: bd.slots
  else begin
    let get i = if arity > i then ins.(i) else -1 in
    let key = (arity, ins.(0), get 1, get 2) in
    match Hashtbl.find_opt bd.keys key with
    | Some (S_group g) ->
      g.tables <- table :: g.tables;
      g.dsts <- dst :: g.dsts
    | Some (S_job _) -> assert false
    | None ->
      let g = S_group { arity; operands; tables = [ table ]; dsts = [ dst ] } in
      Hashtbl.add bd.keys key g;
      bd.slots <- g :: bd.slots
  end

let gathered bd =
  let slots = Array.of_list (List.rev bd.slots) in
  let jobs =
    Array.map
      (function
        | S_job (j, _) -> j
        | S_group g ->
          Group
            { arity = g.arity; operands = g.operands; tables = Array.of_list (List.rev g.tables) })
      slots
  in
  let dsts =
    Array.concat
      (Array.to_list
         (Array.map
            (function S_job (_, d) -> [| d |] | S_group g -> Array.of_list (List.rev g.dsts))
            slots))
  in
  (jobs, dsts)

type stats = { bootstraps : int; nots : int; wave_wall : float array; wave_width : int array }

let wave_probe obs tr p ~probe ~jobs ~outputs ~nots ~alloc0 =
  Exec_obs.wave_counters tr p ~jobs ~outputs ~nots ~alloc_words:(Exec_obs.alloc_words () -. alloc0);
  probe tr;
  Trace.drain obs

(* ------------------------------------------------------------------ *)
(* The netlist source                                                  *)
(* ------------------------------------------------------------------ *)

type cursor = {
  net : Netlist.t;
  waves : Levelize.wave array;
  values : Lwe.sample option array;
  mutable wave : int;
  mutable jobs : job array;
  mutable dsts : Netlist.id array;
  mutable nots : int;
}

(* LUT cells produce lutdom ciphertexts; classic consumers (gate operands,
   arity-1 cells, NOTs, outputs) read them through the free, exact
   lutdom -> classic view. *)
let classic c id =
  let v = Option.get c.values.(id) in
  if Netlist.is_lut c.net id then Gates.lut_to_classic v else v

let load c w =
  c.wave <- w;
  if w < Array.length c.waves then begin
    let bd = gather () in
    Array.iter
      (fun id ->
        match Netlist.kind c.net id with
        | Netlist.Gate (g, a, b) -> add_gate bd ~dst:id g (classic c a) (classic c b)
        | Netlist.Lut { table; ins } ->
          let operands =
            if Array.length ins = 1 then [| classic c ins.(0) |]
            else Array.map (fun a -> Option.get c.values.(a)) ins
          in
          add_lut bd ~dst:id ~table ~ins operands
        | Netlist.Input _ | Netlist.Const _ -> assert false)
      c.waves.(w).Levelize.parallel;
    let jobs, dsts = gathered bd in
    c.jobs <- jobs;
    c.dsts <- dsts
  end
  else begin
    c.jobs <- [||];
    c.dsts <- [||]
  end

let cursor ?schedule cloud net inputs =
  let input_list = Netlist.inputs net in
  if Array.length inputs <> List.length input_list then
    invalid_arg "Wave.cursor: input arity mismatch";
  let values = Array.make (Netlist.node_count net) None in
  List.iteri (fun i (_, id) -> values.(id) <- Some inputs.(i)) input_list;
  for id = 0 to Netlist.node_count net - 1 do
    match Netlist.kind net id with
    | Netlist.Const b -> values.(id) <- Some (Gates.constant cloud b)
    | Netlist.Input _ | Netlist.Gate _ | Netlist.Lut _ -> ()
  done;
  let sched = match schedule with Some s -> s | None -> Levelize.run net in
  let c =
    { net; waves = Levelize.waves sched net; values; wave = 0; jobs = [||]; dsts = [||]; nots = 0 }
  in
  load c 0;
  c

let jobs c = c.jobs
let finished c = c.wave >= Array.length c.waves

let deliver c outs =
  if Array.length outs <> Array.length c.dsts then
    invalid_arg "Wave.deliver: output count does not match the wave";
  Array.iteri (fun i id -> c.values.(id) <- Some outs.(i)) c.dsts;
  (* NOTs may read this wave's fresh results and each other (ascending). *)
  Array.iter
    (fun id ->
      match Netlist.kind c.net id with
      | Netlist.Gate (_, a, _) ->
        c.values.(id) <- Some (Lwe.neg (classic c a));
        c.nots <- c.nots + 1
      | Netlist.Input _ | Netlist.Const _ | Netlist.Lut _ -> assert false)
    c.waves.(c.wave).Levelize.inline;
  load c (c.wave + 1)

let results c = Netlist.outputs c.net |> List.map (fun (_, id) -> classic c id) |> Array.of_list

let run_netlist ~obs ~track ?(probe = ignore) ~run_wave cloud net inputs =
  let c = cursor cloud net inputs in
  let p = cloud.Gates.cloud_params in
  let traced = Trace.enabled obs in
  if traced then Exec_obs.noise_gauges track p;
  let nw = Array.length c.waves in
  let wave_wall = Array.make nw 0.0 and wave_width = Array.make nw 0 in
  let boots = ref 0 in
  while not (finished c) do
    let w = c.wave and jobs = c.jobs and nots0 = c.nots in
    let t0 = Trace.now obs in
    let alloc0 = if traced then Exec_obs.alloc_words () else 0.0 in
    let outs = if Array.length jobs = 0 then [||] else run_wave jobs in
    deliver c outs;
    let t1 = Trace.now obs in
    wave_wall.(w) <- t1 -. t0;
    wave_width.(w) <- Array.length jobs;
    boots := !boots + Array.length jobs;
    if traced then begin
      Trace.span track ~cat:"wave" ~name:(Printf.sprintf "wave %d" w) ~t0 ~t1;
      wave_probe obs track p ~probe ~jobs:(Array.length jobs) ~outputs:(Array.length outs)
        ~nots:(c.nots - nots0) ~alloc0
    end
  done;
  (results c, { bootstraps = !boots; nots = c.nots; wave_wall; wave_width })
