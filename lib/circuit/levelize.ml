type schedule = {
  level : int array;
  depth : int;
  widths : int array;
  total_bootstraps : int;
}

let run net =
  let n = Netlist.node_count net in
  let level = Array.make n 0 in
  let depth = ref 0 in
  let counts = Pytfhe_util.Growable.create ~capacity:64 () in
  let bump l =
    while Pytfhe_util.Growable.length counts < l do
      Pytfhe_util.Growable.push counts 0
    done;
    Pytfhe_util.Growable.set counts (l - 1) (Pytfhe_util.Growable.get counts (l - 1) + 1)
  in
  let total = ref 0 in
  let place id base =
    let l = base + 1 in
    level.(id) <- l;
    if l > !depth then depth := l;
    bump l;
    incr total
  in
  for id = 0 to n - 1 do
    match Netlist.kind net id with
    | Netlist.Input _ | Netlist.Const _ -> ()
    | Netlist.Gate (g, a, b) ->
      let la = level.(a) and lb = level.(b) in
      let base = if la > lb then la else lb in
      if Gate.is_unary g then level.(id) <- base else place id base
    | Netlist.Lut { ins; _ } ->
      (* every LUT cell occupies a bootstrap slot in its wave; rotation
         sharing between same-operand cells is the executors' business *)
      place id (Array.fold_left (fun acc a -> max acc level.(a)) 0 ins)
  done;
  { level; depth = !depth; widths = Pytfhe_util.Growable.to_array counts; total_bootstraps = !total }

(* Incremental levelizer: the same placement rule as [run], maintained node
   by node as construction proceeds, so a streaming compiler knows each
   node's level (and the evolving widths profile) without a final sweep. *)
module Inc = struct
  module Growable = Pytfhe_util.Growable

  type t = {
    net : Netlist.t;
    levels : Growable.t;  (* per node, 0 for inputs/constants *)
    counts : Growable.t;  (* counts.(l-1): bootstrapped nodes in wave l *)
    mutable depth : int;
    mutable total : int;
    mutable upto : int;  (* next id to consume *)
  }

  let create net =
    { net; levels = Growable.create ~capacity:1024 (); counts = Growable.create ~capacity:64 ();
      depth = 0; total = 0; upto = 0 }

  let bump t l =
    while Growable.length t.counts < l do
      Growable.push t.counts 0
    done;
    Growable.set t.counts (l - 1) (Growable.get t.counts (l - 1) + 1)

  let note t id =
    if id <> t.upto then invalid_arg "Levelize.Inc.note: ids must arrive in order";
    t.upto <- id + 1;
    let place base =
      let l = base + 1 in
      Growable.push t.levels l;
      if l > t.depth then t.depth <- l;
      bump t l;
      t.total <- t.total + 1
    in
    match Netlist.kind t.net id with
    | Netlist.Input _ | Netlist.Const _ -> Growable.push t.levels 0
    | Netlist.Gate (g, a, b) ->
      let la = Growable.get t.levels a and lb = Growable.get t.levels b in
      let base = if la > lb then la else lb in
      if Gate.is_unary g then Growable.push t.levels base else place base
    | Netlist.Lut { ins; _ } ->
      place (Array.fold_left (fun acc a -> max acc (Growable.get t.levels a)) 0 ins)

  let catch_up t =
    while t.upto < Netlist.node_count t.net do
      note t t.upto
    done

  let level t id = Growable.get t.levels id
  let depth t = t.depth
  let total_bootstraps t = t.total

  let schedule t =
    catch_up t;
    { level = Growable.to_array t.levels; depth = t.depth;
      widths = Growable.to_array t.counts; total_bootstraps = t.total }
end

let max_width s = Array.fold_left max 0 s.widths

let average_width s =
  if s.depth = 0 then 0.0 else float_of_int s.total_bootstraps /. float_of_int s.depth

let serial_fraction s =
  if s.depth = 0 then 0.0
  else
    let serial = Array.fold_left (fun acc w -> if w <= 1 then acc + 1 else acc) 0 s.widths in
    float_of_int serial /. float_of_int s.depth
