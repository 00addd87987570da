(* compile.mnist_s: the paper's flagship model (VIP-Bench MNIST_S, 28x28,
   Fixed(8,4)) through the default pipeline several times in one process —
   frontend build, Opt.optimize, assemble, stats, levelize.  No crypto runs.
   Every compile must give the first compile's binary byte for byte, and
   that binary is evaluated in plaintext on one seeded input per compile and
   checked against the [Nn.reference] interpreter. *)

open Pytfhe_chiseltorch
module Netlist = Pytfhe_circuit.Netlist
module Binary = Pytfhe_circuit.Binary
module Stats = Pytfhe_circuit.Stats
module Pipeline = Pytfhe_core.Pipeline
module Plain_eval = Pytfhe_backend.Plain_eval
module Networks = Pytfhe_vipbench.Networks
module Rng = Pytfhe_util.Rng
module Trace = Pytfhe_obs.Trace
open Common

(* Warm compiles take 2-4.5 s on a shared 2-vCPU host, from quiet to busy;
   at 3 s a 20-s run makes 7 of them. *)
let nominal_compile_s = 3.

let run (a : args) =
  let sink = if a.trace then Trace.create () else Trace.null in
  let l = ledger sink ~workload:a.workload in
  (* The smoke mode compiles the 8x8 variant of the same network. *)
  let image, model_seed = if a.smoke then (8, 104) else (28, 101) in
  let model = Networks.mnist_model ~seed:model_seed ~image ~conv_ch:1 in
  let shape = [| 1; image; image |] in
  let dtype = Networks.dtype in
  let width = Dtype.width dtype in
  let rng = Rng.create ~seed:a.seed () in
  (* One compile as a user pays it.  Only the binary and the count of
     bootstraps the optimizer removed outlive it, so the netlist and the
     schedule are garbage by the time the next compile or a check runs. *)
  let compile l i =
    (* Every compile starts from the same collected heap. *)
    Gc.full_major ();
    let t0 = now () in
    let c =
      span l "op" (Printf.sprintf "compile %d" i) (fun () ->
          let net =
            span l "chiseltorch" "build" (fun () ->
                let net = Netlist.create () in
                let x = Tensor.input net "x" dtype shape in
                Tensor.output net "y" (Nn.run net model x);
                net)
          in
          span l "core" "compile" (fun () -> Pipeline.compile ~obs:l.sink ~name:"mnist_s" net))
    in
    let t = now () -. t0 in
    let removed =
      match c.Pipeline.opt_report with
      | Some r -> r.Pytfhe_synth.Opt.bootstraps_before - r.Pytfhe_synth.Opt.bootstraps_after
      | None -> 0
    in
    (c.Pipeline.binary, removed, t)
  in
  let cold_binary, removed, setup_s = compile l 0 in
  let count = if a.smoke then 2 else max 3 (int_of_float (Float.round (a.seconds /. nominal_compile_s))) in
  (* Warm compiles: each one's seconds, and whether its binary is the cold
     one byte for byte. *)
  let warm l =
    let mark = gc_mark () in
    let runs =
      List.init count (fun i ->
          let binary, _, t = compile l (i + 1) in
          log "compile %d: %.3f s" (i + 1) t;
          (t, Bytes.equal binary cold_binary))
    in
    let alloc_mb, majors = gc_since mark in
    (runs, (alloc_mb /. float_of_int count, float_of_int majors /. float_of_int count))
  in
  (* The reference checks run after every compile, so they add nothing to
     the heap peak.  Since every warm binary must equal the cold one, the
     cold binary is evaluated once per compile, on that compile's own seeded
     input; compile [i] is correct when both hold. *)
  let failures net identical =
    List.length
      (List.filter not
         (List.mapi
            (fun i same ->
              let patterns = Array.init (Array.fold_left ( * ) 1 shape) (fun _ -> Rng.int rng (1 lsl width)) in
              let out =
                Array.of_list (List.map snd (Plain_eval.run net (Refs.bits_of_patterns ~width patterns)))
              in
              let ok = Refs.patterns_of_bits ~width out = Nn.reference model dtype shape patterns in
              if not ok then log "compile %d: program disagrees with Nn.reference" i;
              if not same then log "compile %d: binary differs from the first compile's" i;
              ok && same)
            (true :: identical)))
  in
  (* The cold binary parsed back, once every compile is done. *)
  let parse () =
    Gc.full_major ();
    let net = Binary.parse cold_binary in
    (net, Stats.compute net)
  in
  if not a.trace then begin
    let runs, _ = warm l in
    let peak_heap_mb = peak_heap_mb () in
    let times = Array.of_list (List.map fst runs) in
    let compile_s = median times in
    let net, parsed = parse () in
    {
      attempted = count + 1;
      failed = failures net (List.map snd runs);
      metrics =
        [
          ("setup_s", setup_s);
          ("latency_s", compile_s);
          ("throughput_rps", float_of_int count /. Array.fold_left ( +. ) 0. times);
          ("gates_per_s", float_of_int parsed.Stats.bootstraps /. compile_s);
          ("program_bootstraps", float_of_int parsed.Stats.bootstraps);
          ("binary_bytes", float_of_int (Bytes.length cold_binary));
          ("peak_heap_mb", peak_heap_mb);
        ];
    }
  end
  else begin
    let plain, _ = warm (untraced ~workload:a.workload) in
    let traced, (alloc_mb, majors) = warm l in
    let spans = Layers.of_sink sink ~out_dir:a.out_dir ~workload:a.workload ~seed:a.seed in
    let compile_span name = Layers.span_median spans ~track:(( = ) "compile") ~name:(( = ) name) in
    let median_time runs = median (Array.of_list (List.map fst runs)) in
    let net, parsed = parse () in
    {
      attempted = (2 * count) + 1;
      failed = failures net (List.map snd (plain @ traced));
      metrics =
        [
          ( "core.compile_s",
            Layers.span_median spans ~track:(Layers.on_bench_layer "core") ~name:(( = ) "compile") );
          ( "chiseltorch.build_s",
            Layers.span_median spans ~track:(Layers.on_bench_layer "chiseltorch") ~name:(( = ) "build") );
          ("synth.optimize_s", compile_span "optimize");
          ("synth.bootstraps_removed", float_of_int removed);
          ("circuit.assemble_s", compile_span "assemble");
          ("circuit.stats_s", compile_span "stats");
          ("circuit.levelize_s", compile_span "levelize");
          ("circuit.depth", float_of_int parsed.Stats.depth);
          ("circuit.max_width", float_of_int parsed.Stats.max_width);
          ("gc.allocated_mb", alloc_mb);
          ("gc.major_collections", majors);
          ("trace.overhead_s", median_time traced -. median_time plain);
        ]
        @ Layers.self_metrics spans;
    }
  end
