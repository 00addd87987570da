(* Per-layer figures from a traced run's Chrome trace: which layer each span
   belongs to, medians of named spans, per-layer self time (a span minus the
   part of it deeper spans cover) and the wall time no layer span covers. *)

module Json = Pytfhe_util.Json
module Trace = Pytfhe_obs.Trace

type span = { track : string; name : string; t0 : float; t1 : float }

(* Complete spans of a Chrome trace object, in seconds, with track names
   resolved from the thread-name metadata. *)
let spans_of_chrome json =
  let events = match Json.member "traceEvents" json with Some (Json.List l) -> l | _ -> [] in
  let num k e = match Json.member k e with Some (Json.Number f) -> f | _ -> 0. in
  let str k e = match Json.member k e with Some (Json.String s) -> s | _ -> "" in
  let names = Hashtbl.create 16 in
  List.iter
    (fun e ->
      if str "ph" e = "M" then
        match Json.member "args" e with
        | Some a -> Hashtbl.replace names (num "tid" e) (str "name" a)
        | None -> ())
    events;
  List.filter_map
    (fun e ->
      if str "ph" e <> "X" then None
      else
        let t0 = num "ts" e /. 1e6 in
        Some
          {
            track = Option.value (Hashtbl.find_opt names (num "tid" e)) ~default:"?";
            name = str "name" e;
            t0;
            t1 = t0 +. (num "dur" e /. 1e6);
          })
    events

(* The benchmark's own tracks are named "<workload>/<layer>[.<lane>]"; the
   rest are the tracks the libraries open. *)
let bench_layer track =
  match String.index_opt track '/' with
  | Some i ->
    let layer = String.sub track (i + 1) (String.length track - i - 1) in
    Some (match String.index_opt layer '.' with Some j -> String.sub layer 0 j | None -> layer)
  | None -> None

let on_bench_layer layer track = bench_layer track = Some layer

(* Layer and nesting depth of a span.  A span can only be a child of a span
   of smaller depth. *)
let classify s =
  match bench_layer s.track with
  | Some layer -> (
    match layer with
    | "op" -> ("op", 0)
    (* Frontend builds run inside the streaming compiler's span. *)
    | "chiseltorch" -> ("chiseltorch", 3)
    | l -> (l, 1))
  | None -> (
    match s.track with
    | "compile" -> if s.name = "optimize" || s.name = "lut-cover" then ("synth", 2) else ("circuit", 2)
    | "waves" | "coordinator" | "stream" | "stream-waves" | "cpu" -> ("backend", 3)
    | t when String.starts_with ~prefix:"domain " t -> ("tfhe", 4)
    | t when String.starts_with ~prefix:"worker " t -> ("dist", 4)
    | t -> (t, 5))

(* Length of the union of intervals. *)
let union_length ivs =
  let ivs = List.sort compare ivs in
  let total, last =
    List.fold_left
      (fun (acc, cur) (a, b) ->
        match cur with
        | None -> (acc, Some (a, b))
        | Some (ca, cb) -> if a <= cb then (acc, Some (ca, Float.max cb b)) else (acc +. (cb -. ca), Some (a, b)))
      (0., None) ivs
  in
  match last with Some (a, b) -> total +. (b -. a) | None -> total

(* Self seconds per layer: every span's duration minus the union of the
   deeper spans inside it, summed per layer.  Spans of parallel lanes each
   count, so a layer running on two domains can exceed wall time. *)
let self_times spans =
  let tagged = Array.of_list (List.map (fun s -> (s, classify s)) spans) in
  let acc = Hashtbl.create 8 in
  Array.iter
    (fun (s, (layer, depth)) ->
      let covered =
        Array.fold_left
          (fun l (c, (_, d)) ->
            if d > depth && c.t1 > s.t0 && c.t0 < s.t1 then (Float.max c.t0 s.t0, Float.min c.t1 s.t1) :: l
            else l)
          [] tagged
      in
      let self = s.t1 -. s.t0 -. union_length covered in
      Hashtbl.replace acc layer (self +. Option.value (Hashtbl.find_opt acc layer) ~default:0.))
    tagged;
  fun layer -> Option.value (Hashtbl.find_opt acc layer) ~default:0.

(* Median duration of the spans matching [track] and [name]. *)
let span_median spans ~track ~name =
  let d =
    List.filter_map (fun s -> if track s.track && name s.name then Some (s.t1 -. s.t0) else None) spans
  in
  if d = [] then 0. else Common.median (Array.of_list d)

(* Precise JSON printer: [Json.to_string] keeps six significant digits,
   too few for microsecond timestamps a minute into a run. *)
let rec to_buffer buf = function
  | Json.Null -> Buffer.add_string buf "null"
  | Json.Bool b -> Buffer.add_string buf (string_of_bool b)
  | Json.Number f ->
    if Float.is_integer f && Float.abs f < 1e15 then Buffer.add_string buf (Printf.sprintf "%.0f" f)
    else if Float.is_finite f then Buffer.add_string buf (Printf.sprintf "%.17g" f)
    else Buffer.add_string buf "null"
  | Json.String s -> Buffer.add_string buf (Json.to_string (Json.String s))
  | Json.List l ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_string buf ",\n";
        to_buffer buf v)
      l;
    Buffer.add_char buf ']'
  | Json.Obj kvs ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_string buf (Json.to_string (Json.String k));
        Buffer.add_char buf ':';
        to_buffer buf v)
      kvs;
    Buffer.add_char buf '}'

let json_string v =
  let buf = Buffer.create 4096 in
  to_buffer buf v;
  Buffer.contents buf

(* Export the sink as a Chrome trace, read the file back and validate what
   is on disk with [Trace.validate_chrome]; returns its spans. *)
let of_sink sink ~out_dir ~workload ~seed =
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let path = Filename.concat out_dir (Printf.sprintf "%s.seed%d.trace.json" workload seed) in
  Out_channel.with_open_bin path (fun oc -> output_string oc (json_string (Trace.to_chrome sink)));
  let json = Json.parse (In_channel.with_open_bin path In_channel.input_all) in
  match Trace.validate_chrome json with
  | Ok () ->
    Common.log "trace: %s (%d dropped events)" path (Trace.dropped sink);
    spans_of_chrome json
  | Error e -> failwith (Printf.sprintf "%s: Trace.validate_chrome: %s" path e)

let self_layers = [ "core"; "chiseltorch"; "synth"; "circuit"; "backend"; "tfhe"; "dist"; "service"; "fft" ]

(* Self seconds per layer, and the wall time of the benchmark's top-level
   spans (set-up, each operation, the probes) that no layer span covers. *)
let self_metrics spans =
  let self = self_times spans in
  ("trace.unattributed_s", self "op") :: List.map (fun layer -> (layer ^ ".self_s", self layer)) self_layers
