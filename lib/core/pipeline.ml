module Netlist = Pytfhe_circuit.Netlist
module Stats = Pytfhe_circuit.Stats
module Levelize = Pytfhe_circuit.Levelize
module Binary = Pytfhe_circuit.Binary
module Opt = Pytfhe_synth.Opt
module Trace = Pytfhe_obs.Trace
open Pytfhe_chiseltorch

type compiled = {
  prog_name : string;
  netlist : Netlist.t;
  binary : bytes;
  stats : Stats.t;
  schedule : Levelize.schedule;
  opt_report : Opt.report option;
}

let compile ?(obs = Trace.null) ?(optimize = true) ?(lut_cover = false) ~name net =
  (* One span per compile phase on a "compile" track; phases run strictly
     sequentially, so the track's spans can never overlap. *)
  let tr = Trace.new_track obs ~name:"compile" in
  let phase pname f =
    if not (Trace.enabled obs) then f ()
    else begin
      let t0 = Trace.now obs in
      let result = f () in
      Trace.span tr ~cat:"compile" ~name:pname ~t0 ~t1:(Trace.now obs);
      result
    end
  in
  let netlist, opt_report =
    if lut_cover then
      (* The covering pass subsumes optimize: it rebuilds (fold, CSE,
         inverter absorption, DCE) before and after covering. *)
      let covered, report = phase "lut-cover" (fun () -> Opt.lut_cover net) in
      (covered, Some report)
    else if optimize then
      let optimized, report = phase "optimize" (fun () -> Opt.optimize net) in
      (optimized, Some report)
    else (net, None)
  in
  let binary = phase "assemble" (fun () -> Binary.assemble netlist) in
  let stats = phase "stats" (fun () -> Stats.compute netlist) in
  let schedule = phase "levelize" (fun () -> Levelize.run netlist) in
  Trace.drain obs;
  { prog_name = name; netlist; binary; stats; schedule; opt_report }

(* ------------------------------------------------------------------ *)
(* Streaming compilation                                               *)
(* ------------------------------------------------------------------ *)

type stream_report = {
  gates : int;
  bootstraps : int;
  depth : int;
  max_width : int;
  node_count : int;
  bytes_emitted : int;
  cse_peak : int;
  cse_evicted : int;
  stream_schedule : Levelize.schedule;
}

let compile_stream ?(obs = Trace.null) ?hash_consing ?fold_constants ?window ?chunk ~name ~sink
    builder =
  let tr = Trace.new_track obs ~name:"compile" in
  let t0 = Trace.now obs in
  let net = Netlist.create ?hash_consing ?fold_constants ?window () in
  let emit = Binary.Emit.create ?chunk ~write:sink net in
  let inc = Levelize.Inc.create net in
  (* One observer drives both incremental passes: the moment a node lands
     in the store it is levelized and its instruction emitted, so neither
     pass ever re-walks the DAG and the binary is never resident. *)
  Netlist.set_observer net (fun id ->
      Binary.Emit.note emit id;
      Levelize.Inc.note inc id);
  builder net;
  let gates = Binary.Emit.finish emit in
  let stream_schedule = Levelize.Inc.schedule inc in
  if Trace.enabled obs then begin
    Trace.span tr ~cat:"compile" ~name:(name ^ ":stream") ~t0 ~t1:(Trace.now obs);
    Trace.drain obs
  end;
  {
    gates;
    bootstraps = Binary.Emit.bootstraps emit;
    depth = stream_schedule.Levelize.depth;
    max_width = Levelize.max_width stream_schedule;
    node_count = Netlist.node_count net;
    bytes_emitted = Binary.Emit.bytes_emitted emit;
    cse_peak = Netlist.cse_peak net;
    cse_evicted = Netlist.cse_evicted net;
    stream_schedule;
  }

let compile_stream_to_bytes ?obs ?hash_consing ?fold_constants ?window ?chunk ~name builder =
  let buf = Buffer.create 4096 in
  let report =
    compile_stream ?obs ?hash_consing ?fold_constants ?window ?chunk ~name
      ~sink:(Buffer.add_bytes buf) builder
  in
  let bytes = Buffer.to_bytes buf in
  Binary.patch_header bytes report.gates;
  (bytes, report)

let compile_stream_to_file ?obs ?hash_consing ?fold_constants ?window ?chunk ~name ~path builder =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let report =
        compile_stream ?obs ?hash_consing ?fold_constants ?window ?chunk ~name
          ~sink:(output_bytes oc) builder
      in
      (* The sink is seekable: rewrite the sentinel header with the exact
         gate total, so executors reading the file get a working
         gate-budget check. *)
      let hdr = Bytes.make 16 '\000' in
      Binary.patch_header hdr report.gates;
      seek_out oc 0;
      output_bytes oc hdr;
      report)

let compile_model ~name ~dtype ~input_shape model =
  let net = Netlist.create () in
  let x = Tensor.input net "x" dtype input_shape in
  Tensor.output net "y" (Nn.run net model x);
  compile ~name net

let compile_workload (w : Pytfhe_vipbench.Workload.t) =
  compile ~name:w.Pytfhe_vipbench.Workload.name (w.Pytfhe_vipbench.Workload.circuit ())

let pp_summary fmt c =
  Format.fprintf fmt "%s: %d gates (%d bootstrapped), depth %d, %d instructions (%d bytes)@."
    c.prog_name c.stats.Stats.gates c.stats.Stats.bootstraps c.stats.Stats.depth
    (Bytes.length c.binary / 16) (Bytes.length c.binary);
  (match c.opt_report with
  | Some r -> Format.fprintf fmt "  synthesis: %a@." Opt.pp_report r
  | None -> ());
  Format.fprintf fmt "  schedule: %d waves, max width %d, avg width %.1f@." c.schedule.Levelize.depth
    (Levelize.max_width c.schedule)
    (Levelize.average_width c.schedule)

let failure_probability c params =
  let p_gate = Pytfhe_tfhe.Noise.gate_failure_probability params in
  let n = float_of_int c.stats.Stats.bootstraps in
  (* 1 - (1-p)^n, computed stably for tiny p. *)
  -.Float.expm1 (n *. Float.log1p (-.p_gate))

let check_correctness c params =
  let p = failure_probability c params in
  if p <= 2.0 ** -20.0 then `Ok p else `Risky p
