(* The repository's benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
     main.exe --smoke

   runs one workload and prints, as the last line of standard output, one
   JSON object: {"correct", "attempted", "failed", "metrics"}.  A timed run
   ([--trace 0]) reports the spec's end-to-end metrics; a traced run
   ([--trace 1]) reports its per-layer metrics and writes a Chrome trace and
   the per-layer values under .perfbench/.  Metric names and units come from
   the spec, BENCHMARK.json in the working directory.  Every other line goes
   to standard error.
   [--smoke] runs every workload both ways at tiny parameters and checks the
   results. *)

module Json = Pytfhe_util.Json
open Common

let workloads =
  [
    ("infer.conv.d128", fun (a : args) -> Infer.run (Infer.conv ~smoke:a.smoke) a);
    ("infer.attn.ntt.dist", fun (a : args) -> Infer.run (Infer.attn ~smoke:a.smoke) a);
    ("service.mixed", Svc.run);
    ("compile.mnist_s", Comp.run);
  ]

(* (name, unit) of the spec's end-to-end and per-layer metrics. *)
let read_spec path =
  let json = Json.parse (In_channel.with_open_bin path In_channel.input_all) in
  let metrics key =
    match Json.member key json with
    | Some (Json.List l) ->
      List.map
        (fun m ->
          match (Json.member "name" m, Json.member "unit" m) with
          | Some (Json.String n), Some (Json.String u) -> (n, u)
          | _ -> failwith (path ^ ": metric without name or unit"))
        l
    | _ -> failwith (path ^ ": no " ^ key)
  in
  (metrics "end_to_end", metrics "per_layer")

(* Fill the spec's metric list from what the workload measured.  An
   end-to-end metric must be measured; a per-layer metric of a layer the
   workload never loads reads 0. *)
let resolve ~trace (e2e, layers) measured =
  let spec = if trace then layers else e2e in
  List.iter
    (fun (n, _) -> if not (List.mem_assoc n spec) then failwith ("metric not in the spec: " ^ n))
    measured;
  List.map
    (fun (n, u) ->
      match List.assoc_opt n measured with
      | Some v when Float.is_finite v -> (n, v, u)
      | Some _ -> failwith ("metric is not finite: " ^ n)
      | None when trace -> (n, 0., u)
      | None -> failwith ("end-to-end metric not measured: " ^ n))
    spec

let result_line (o : outcome) metrics =
  Layers.json_string
    (Json.Obj
       [
         ("correct", Json.Bool (o.failed = 0));
         ("attempted", Json.Number (float_of_int o.attempted));
         ("failed", Json.Number (float_of_int o.failed));
         ( "metrics",
           Json.Obj
             (List.map
                (fun (n, v, u) -> (n, Json.Obj [ ("value", Json.Number v); ("unit", Json.String u) ]))
                metrics)
         );
       ])

let run_one spec (a : args) =
  let calib0 = calib_ms () in
  let o = (List.assoc a.workload workloads) a in
  let calib1 = calib_ms () in
  log "%s seed %d: %d attempted, %d failed" a.workload a.seed o.attempted o.failed;
  log "host.calib_ms %.4f %.4f (start, end)" calib0 calib1;
  let measured = if a.trace then ("host.calib_ms", (calib0 +. calib1) /. 2.) :: o.metrics else o.metrics in
  (o, resolve ~trace:a.trace spec measured)

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1\n\
    \       main.exe --smoke";
  prerr_endline ("workloads: " ^ String.concat ", " (List.map fst workloads));
  exit 2

let smoke spec =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ()) (Printf.sprintf "perfbench-smoke-%d" (Unix.getpid ()))
  in
  let ok = ref true in
  List.iter
    (fun (name, _) ->
      List.iter
        (fun trace ->
          let a = { workload = name; seed = 7; seconds = 1.; trace; smoke = true; out_dir = dir } in
          match run_one spec a with
          | o, metrics ->
            log "%s" (result_line o metrics);
            if o.failed <> 0 || o.attempted < 1 then begin
              ok := false;
              log "SMOKE FAIL: %s trace=%b" name trace
            end
          | exception e ->
            ok := false;
            log "SMOKE FAIL: %s trace=%b: %s" name trace (Printexc.to_string e))
        [ false; true ])
    workloads;
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (try Sys.readdir dir with Sys_error _ -> [||]);
  (try Sys.rmdir dir with Sys_error _ -> ());
  if not !ok then exit 1;
  print_endline "perfbench smoke: every workload ran timed and traced"

let () =
  Pytfhe_backend.Dist_eval.worker_entry ();
  let rec parse acc = function
    | [] -> acc
    | "--smoke" :: rest -> parse (("smoke", "1") :: acc) rest
    | flag :: v :: rest when String.length flag > 2 && String.sub flag 0 2 = "--" ->
      parse ((String.sub flag 2 (String.length flag - 2), v) :: acc) rest
    | _ -> usage ()
  in
  let opts = parse [] (List.tl (Array.to_list Sys.argv)) in
  let get k = List.assoc_opt k opts in
  let spec =
    try read_spec "BENCHMARK.json"
    with Sys_error e | Failure e ->
      prerr_endline ("perfbench: cannot read the spec: " ^ e);
      exit 2
  in
  if get "smoke" <> None then smoke spec
  else begin
    let int k = match Option.bind (get k) int_of_string_opt with Some v -> v | None -> usage () in
    let workload = match get "workload" with Some w when List.mem_assoc w workloads -> w | _ -> usage () in
    let trace = match int "trace" with 0 -> false | 1 -> true | _ -> usage () in
    let a =
      {
        workload;
        seed = int "seed";
        seconds = float_of_int (int "seconds");
        trace;
        smoke = false;
        out_dir = ".perfbench";
      }
    in
    let o, metrics = run_one spec a in
    List.iter (fun (n, v, u) -> log "  %-28s %14.6f %s" n v u) metrics;
    let line = result_line o metrics in
    if trace then begin
      (* The per-layer values beside the trace, with the run's seed. *)
      let path = Filename.concat a.out_dir (Printf.sprintf "%s.seed%d.layers.json" workload a.seed) in
      Out_channel.with_open_bin path (fun oc ->
          Printf.fprintf oc "{\"workload\":%S,\"seed\":%d,\"seconds\":%g,\"result\":%s}\n" workload a.seed a.seconds
            line);
      log "per-layer values: %s" path
    end;
    print_endline line
  end
