(* The two inference workloads: a scaled MNIST convolution at secure
   parameters on the multicore executor, and a scaled BERT attention head
   compiled by the streaming compiler and run on the multi-process executor
   with the NTT.  Both time encrypt -> execute -> decrypt per inference and
   check every output against a ChiselTorch plaintext reference. *)

open Pytfhe_tfhe
open Pytfhe_chiseltorch
module Netlist = Pytfhe_circuit.Netlist
module Binary = Pytfhe_circuit.Binary
module Stats = Pytfhe_circuit.Stats
module Pipeline = Pytfhe_core.Pipeline
module Client = Pytfhe_core.Client
module Server = Pytfhe_core.Server
module Executor = Pytfhe_backend.Executor
module Rng = Pytfhe_util.Rng
module Trace = Pytfhe_obs.Trace
open Common

(* A compiled program, whatever compiler produced it. *)
type program = {
  run : Trace.sink -> Gates.cloud_keyset -> Lwe.sample array -> Lwe.sample array * Executor.stats;
  binary : bytes;
  compile_layers : (string * float) list;  (** Counts the compiler reports. *)
}

type spec = {
  params : Params.t;
  dtype : Dtype.t;
  elements : int;  (** Input elements. *)
  compile : ledger -> program;
  reference : int array -> int array;  (** Input patterns -> output patterns. *)
  setup_blocks : int * int;
      (** Set-ups timed per run, as (blocks, set-ups per block): the block
          means' median is reported. *)
  compile_block : int;  (** Compiles per timed block of [core.compile_s]. *)
  nominal_op_s : float;  (** Fixed cost estimate that sizes the op count. *)
}

(* {2 infer.conv.d128} *)

let conv_dtype = Dtype.Fixed { width = 3; frac = 1 }

let conv_layer =
  let rng = Rng.create ~seed:31337 () in
  let weights = Array.init 9 (fun _ -> Rng.float rng -. 0.5) in
  let bias = Array.init 1 (fun _ -> Rng.float rng -. 0.5) in
  Nn.Conv2d { in_ch = 1; out_ch = 1; kernel = 3; stride = 1; padding = 1; weights; bias = Some bias }

let conv ~smoke =
  let image = 2 in
  let shape = [| 1; image; image |] in
  let compile l =
    let net =
      span l "chiseltorch" "build" (fun () ->
          let net = Netlist.create () in
          let x = Tensor.input net "x" conv_dtype shape in
          Tensor.output net "y" (Nn.apply ~reuse:true net conv_layer x);
          net)
    in
    let c = Pipeline.compile ~obs:l.sink ~name:"conv.d128" net in
    let removed =
      match c.Pipeline.opt_report with
      | Some r -> r.Pytfhe_synth.Opt.bootstraps_before - r.Pytfhe_synth.Opt.bootstraps_after
      | None -> 0
    in
    {
      run =
        (fun obs cloud cts ->
          Server.run ~opts:{ Executor.default_opts with obs } (Server.Multicore { workers = 2 }) cloud c cts);
      binary = c.Pipeline.binary;
      compile_layers = [ ("synth.bootstraps_removed", float_of_int removed) ];
    }
  in
  {
    params = (if smoke then smoke_params () else Params.default_128);
    dtype = conv_dtype;
    elements = image * image;
    compile;
    reference = Nn.reference [ conv_layer ] conv_dtype shape;
    setup_blocks = (if smoke then (2, 1) else (3, 1));
    compile_block = 40;
    nominal_op_s = 17.;
  }

(* {2 infer.attn.ntt.dist} *)

let attn_cfg = { Attention.seq_len = 2; hidden = 2 }
let attn_weights = Attention.random_weights (Rng.create ~seed:41414 ()) attn_cfg

let source_of_bytes b =
  let pos = ref 0 in
  fun () ->
    if !pos >= Bytes.length b then None
    else begin
      let len = min 4096 (Bytes.length b - !pos) in
      let s = Bytes.sub b !pos len in
      pos := !pos + len;
      Some s
    end

let attn ~smoke =
  let dtype = conv_dtype in
  let compile l =
    let frontend net =
      span l "chiseltorch" "build" (fun () ->
          let x = Tensor.input net "x" dtype [| attn_cfg.Attention.seq_len; attn_cfg.Attention.hidden |] in
          Tensor.output net "y" (Attention.build ~reuse:true net attn_cfg attn_weights x))
    in
    let bytes, report = Pipeline.compile_stream_to_bytes ~obs:l.sink ~window:32 ~name:"attn.ntt" frontend in
    let module E = (val Executor.multiprocess ~workers:2 ()) in
    {
      run =
        (fun obs cloud cts ->
          E.run_stream ~opts:{ Executor.default_opts with obs } cloud (source_of_bytes bytes) cts);
      binary = bytes;
      compile_layers = [ ("circuit.cse_evicted", float_of_int report.Pipeline.cse_evicted) ];
    }
  in
  {
    params =
      (if smoke then smoke_params ~transform:Pytfhe_fft.Transform.Ntt ()
       else Params.with_transform Params.test Pytfhe_fft.Transform.Ntt);
    dtype;
    elements = attn_cfg.Attention.seq_len * attn_cfg.Attention.hidden;
    compile;
    reference = Refs.attention dtype attn_cfg attn_weights;
    setup_blocks = (if smoke then (2, 1) else (5, 6));
    compile_block = 20;
    nominal_op_s = (if smoke then 1. else 10.);
  }

(* {2 The shared run loop} *)

type op = { latency : float; encrypt : float; decrypt : float; stats : Executor.stats; ok : bool }

let run_ops spec l ~client ~cloud ~program ~rng ~count =
  let width = Dtype.width spec.dtype in
  List.init count (fun i ->
      let patterns = Array.init spec.elements (fun _ -> Rng.int rng (1 lsl width)) in
      let bits = Refs.bits_of_patterns ~width patterns in
      (* Every operation starts from the same collected heap. *)
      Gc.full_major ();
      let t0 = now () in
      let encrypt, decrypt, outs, stats =
        span l "op" (Printf.sprintf "inference %d" i) (fun () ->
            let t = now () in
            let cts = span l "core" "encrypt" (fun () -> Client.encrypt_bits client bits) in
            let encrypt = now () -. t in
            let outs, stats = span l "core" "run" (fun () -> program.run l.sink cloud cts) in
            let t = now () in
            let outs = span l "core" "decrypt" (fun () -> Client.decrypt_bits client outs) in
            (encrypt, now () -. t, outs, stats))
      in
      let latency = now () -. t0 in
      let ok = Refs.patterns_of_bits ~width outs = spec.reference patterns in
      if not ok then log "inference %d: output disagrees with the reference" i;
      { latency; encrypt; decrypt; stats; ok })

let run spec (a : args) =
  let sink = if a.trace then Trace.create () else Trace.null in
  let l = ledger sink ~workload:a.workload in
  (* Set-up is compile + keygen, timed repeatedly; the last one is kept. *)
  let blocks, per_block = spec.setup_blocks in
  let keygen_times = Array.make (blocks * per_block) 0. in
  let (program, (client, cloud)), setup_s =
    span l "op" "setup" (fun () ->
        repeat ~blocks ~per_block (fun i ->
            let p = span l "core" "compile" (fun () -> spec.compile l) in
            let t0 = now () in
            let k = span l "core" "keygen" (fun () -> Client.keygen ~params:spec.params ~seed:(a.seed + i) ()) in
            keygen_times.(i) <- now () -. t0;
            (p, k)))
  in
  let parsed = Stats.compute (Binary.parse program.binary) in
  let count = max 1 (int_of_float (Float.round (a.seconds /. spec.nominal_op_s))) in
  let rng = Rng.create ~seed:(a.seed lxor 0x5EED) () in
  let measure l =
    let mark = gc_mark () in
    let ops = run_ops spec l ~client ~cloud ~program ~rng ~count in
    let alloc_mb, majors = gc_since mark in
    (ops, (alloc_mb /. float_of_int count, float_of_int majors /. float_of_int count))
  in
  let ops_med f ops = median (Array.of_list (List.map f ops)) in
  let failed ops = List.length (List.filter (fun o -> not o.ok) ops) in
  if not a.trace then begin
    let ops, _ = measure l in
    let boots = List.fold_left (fun s o -> s + o.stats.Executor.bootstraps_executed) 0 ops in
    let exec = List.fold_left (fun s o -> s +. o.stats.Executor.wall_time) 0. ops in
    {
      attempted = count;
      failed = failed ops;
      metrics =
        [
          ("setup_s", setup_s);
          ("latency_s", ops_med (fun o -> o.latency) ops);
          ("throughput_rps", float_of_int count /. List.fold_left (fun s o -> s +. o.latency) 0. ops);
          ("gates_per_s", float_of_int boots /. exec);
          ("program_bootstraps", float_of_int parsed.Stats.bootstraps);
          ("binary_bytes", float_of_int (Bytes.length program.binary));
          ("peak_heap_mb", peak_heap_mb ());
        ];
    }
  end
  else begin
    (* Compile time per call, from blocks of untraced compiles. *)
    let compile_s =
      let quiet = untraced ~workload:a.workload in
      per_call ~blocks:9 ~per_block:spec.compile_block (fun () -> spec.compile quiet)
    in
    (* The same ops untraced first, for the tracing overhead. *)
    let plain, _ = measure (untraced ~workload:a.workload) in
    let traced, (alloc_mb, majors) = measure l in
    let gate_ms, probe_metrics = span l "op" "probes" (fun () -> Probes.run l ~client ~cloud ~seed:a.seed) in
    let spans = Layers.of_sink sink ~out_dir:a.out_dir ~workload:a.workload ~seed:a.seed in
    let st = (List.hd traced).stats in
    let exec = ops_med (fun o -> o.stats.Executor.wall_time) traced in
    let waves = Array.length st.Executor.wave_width in
    (* Medians over the traced inferences of [Dist_eval.stats]. *)
    let dist =
      let module D = Pytfhe_backend.Dist_eval in
      let stats =
        List.filter_map
          (fun o -> match o.stats.Executor.detail with Executor.Multiprocess_stats d -> Some d | _ -> None)
          traced
      in
      let med f = median (Array.of_list (List.map f stats)) in
      if stats = [] then []
      else
        [
          ("dist.startup_s", med (fun d -> d.D.startup_time));
          ("dist.dispatch_s", med (fun d -> d.D.dispatch_time));
          ("dist.transfer_s", med (fun d -> d.D.transfer_time));
          ("dist.compute_s", med (fun d -> d.D.compute_time));
          ("dist.wire_mb", med (fun d -> float_of_int (d.D.bytes_to_workers + d.D.bytes_from_workers) /. 1e6));
          ("dist.retries", med (fun d -> float_of_int d.D.retries));
        ]
    in
    let compile_span name = Layers.span_median spans ~track:(( = ) "compile") ~name in
    {
      attempted = List.length plain + List.length traced;
      failed = failed plain + failed traced;
      metrics =
        [
          ("core.keygen_s", median keygen_times);
          ("core.compile_s", compile_s);
          ("core.encrypt_s", ops_med (fun o -> o.encrypt) traced);
          ("core.decrypt_s", ops_med (fun o -> o.decrypt) traced);
          ( "chiseltorch.build_s",
            Layers.span_median spans ~track:(Layers.on_bench_layer "chiseltorch") ~name:(( = ) "build") );
          ("synth.optimize_s", compile_span (( = ) "optimize"));
          ("circuit.assemble_s", compile_span (( = ) "assemble"));
          ("circuit.stats_s", compile_span (( = ) "stats"));
          ("circuit.levelize_s", compile_span (( = ) "levelize"));
          ("circuit.stream_compile_s", compile_span (String.ends_with ~suffix:":stream"));
          ("circuit.depth", float_of_int parsed.Stats.depth);
          ("circuit.max_width", float_of_int parsed.Stats.max_width);
          ("gc.allocated_mb", alloc_mb);
          ("gc.major_collections", majors);
          ("backend.exec_s", exec);
          ("backend.waves", float_of_int waves);
          ("backend.mean_wave_width", float_of_int st.Executor.bootstraps_executed /. float_of_int (max 1 waves));
          ( "backend.kernel_share",
            float_of_int st.Executor.bootstraps_executed *. gate_ms /. 1000.
            /. (float_of_int st.Executor.workers *. exec) );
          ("trace.overhead_s", ops_med (fun o -> o.latency) traced -. ops_med (fun o -> o.latency) plain);
        ]
        @ program.compile_layers @ probe_metrics @ dist @ Layers.self_metrics spans;
    }
  end
