(* Shared plumbing: run arguments, clocks and sample statistics, the host
   calibration loop, heap figures, the span ledger every workload records
   its calls into the layers on, and the record a workload returns. *)

module Trace = Pytfhe_obs.Trace

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  smoke : bool;  (** Tiny parameters: the benchmark's own test mode. *)
  out_dir : string;  (** Where a traced run writes its Chrome trace and per-layer values. *)
}

let now = Unix.gettimeofday

(* Deliberately undersized, insecure parameters for the smoke mode: every
   gate finishes in well under a millisecond. *)
let smoke_params ?transform () =
  Pytfhe_tfhe.Params.custom ?transform ~name:"perfbench-smoke" ~n:8 ~lwe_stdev:(2.0 ** -20.0) ~ring_n:64 ~k:1
    ~tlwe_stdev:(2.0 ** -30.0) ~l:2 ~bg_bit:6 ~ks_t:4 ~ks_base_bit:2 ()

(* Progress and diagnostics: standard output carries only result lines. *)
let log fmt = Printf.ksprintf prerr_endline fmt

(* {2 Sample statistics} *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile, reported only when at least ten samples lie
   beyond it. *)
let percentile_with_tail xs q =
  let n = Array.length xs in
  if float_of_int n *. (1. -. q) < 10. then None
  else
    let a = sorted xs in
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    Some a.(max 0 (min (n - 1) (rank - 1)))

(* Seconds per call of a short operation: the mean over blocks of
   [per_block] calls, median over [blocks] blocks.  Block means smooth
   per-call jitter; the median drops the blocks a host hiccup hit. *)
let per_call ~blocks ~per_block f =
  median
    (Array.init blocks (fun _ ->
         let t0 = now () in
         for _ = 1 to per_block do
           ignore (Sys.opaque_identity (f ()))
         done;
         (now () -. t0) /. float_of_int per_block))

(* Run a set-up [blocks * per_block] times, each from a collected heap after
   [release] (untimed) has torn down the one before, so repeats reuse memory
   instead of growing the heap.  Returns the last result and the seconds per
   set-up as [per_call] takes them: the mean over each block of [per_block]
   set-ups, median over the blocks. *)
let repeat ?(release = ignore) ~blocks ~per_block f =
  let times = Array.make (blocks * per_block) 0. in
  let last = ref None in
  for i = 0 to Array.length times - 1 do
    Option.iter release !last;
    last := None;
    Gc.full_major ();
    let t0 = now () in
    let r = f i in
    times.(i) <- now () -. t0;
    last := Some r
  done;
  let block b = Array.fold_left ( +. ) 0. (Array.sub times (b * per_block) per_block) /. float_of_int per_block in
  (Option.get !last, median (Array.init blocks block))

(* {2 Host calibration}

   A fixed integer loop that touches no repository code, timed at the start
   and end of every run: it moves with the host, not with the program, so a
   shift in it next to a shift in a metric points at host drift. *)

let calib_once () =
  let t0 = now () in
  let acc = ref 1 in
  for i = 1 to 10_000_000 do
    acc := ((!acc * 1_103_515_245) + i) land 0x3FFF_FFFF
  done;
  ignore (Sys.opaque_identity !acc);
  1000. *. (now () -. t0)

let calib_ms () = median (Array.init 5 (fun _ -> calib_once ()))

(* {2 Heap} *)

let peak_heap_mb () = float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* Words allocated and major collections since a snapshot. *)
type gc_mark = { words : float; majors : int }

let gc_mark () =
  let s = Gc.quick_stat () in
  { words = s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words; majors = s.Gc.major_collections }

let gc_since m =
  let s = gc_mark () in
  ((s.words -. m.words) *. float_of_int (Sys.word_size / 8) /. 1e6, s.majors - m.majors)

(* {2 Span ledger}

   The benchmark's own spans around each call into a layer, one track per
   (workload, layer) — [Trace] tracks must not hold overlapping spans, so
   nesting lives across tracks and is recovered from time containment.  On
   an untraced run the sink is {!Trace.null} and [span] is a plain call. *)

type ledger = { sink : Trace.sink; prefix : string; tracks : (string, Trace.track) Hashtbl.t; lock : Mutex.t }

let ledger sink ~workload = { sink; prefix = workload; tracks = Hashtbl.create 8; lock = Mutex.create () }
let untraced ~workload = ledger Trace.null ~workload

let track l layer =
  Mutex.protect l.lock (fun () ->
      match Hashtbl.find_opt l.tracks layer with
      | Some t -> t
      | None ->
        let t = Trace.new_track l.sink ~name:(l.prefix ^ "/" ^ layer) in
        Hashtbl.add l.tracks layer t;
        t)

let span l layer name f =
  if not (Trace.enabled l.sink) then f ()
  else begin
    let tr = track l layer in
    let t0 = Trace.now l.sink in
    let r = f () in
    Trace.span tr ~cat:layer ~name ~t0 ~t1:(Trace.now l.sink);
    r
  end

(* {2 What a workload reports} *)

type outcome = {
  attempted : int;  (** Operations attempted (inferences, requests, compiles). *)
  failed : int;  (** Outputs that disagree with the reference, plus failed requests. *)
  metrics : (string * float) list;
      (** End-to-end metrics on a timed run, per-layer metrics on a traced
          one; units come from the spec. *)
}
