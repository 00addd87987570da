(* Real multicore evaluation of TFHE programs on OCaml 5 domains.

   The par placement of the wave engine: each wave's jobs have all their
   fan-ins in earlier waves, so the wave is cut into one contiguous slice
   per domain of a fork-join pool, and each domain runs its slice through
   its own Wave.engine.  The slices write disjoint rows of one result
   array, and the pool's mutex handshake is the inter-wave happens-before
   edge.

   The placement is bit-exact with the cpu one: each job performs the
   identical float/torus operation sequence, only on a different domain. *)

module Levelize = Pytfhe_circuit.Levelize
module Trace = Pytfhe_obs.Trace
open Pytfhe_tfhe

type stats = {
  workers : int;
  bootstraps_executed : int;
  nots_executed : int;
  per_domain_bootstraps : int array;
  per_domain_busy : float array;
  wave_wall : float array;
  wave_width : int array;
  wall_time : float;
  achieved_speedup : float;
  ideal_speedup : float;
  batch_size : int;
  batch_launches : int;
  bsk_bytes_streamed : int;
  ks_bytes_streamed : int;
}

(* ------------------------------------------------------------------ *)
(* Fork-join domain pool                                               *)
(* ------------------------------------------------------------------ *)

type pool = {
  helpers : int;  (* worker domains beyond the calling one *)
  mutex : Mutex.t;
  work_ready : Condition.t;
  work_done : Condition.t;
  mutable job : (int -> unit) option;
  mutable epoch : int;
  mutable remaining : int;
  mutable stop : bool;
  mutable failure : exn option;
  mutable domains : unit Domain.t array;
}

let pool_worker pool index =
  let seen = ref 0 in
  let running = ref true in
  while !running do
    Mutex.lock pool.mutex;
    while (not pool.stop) && pool.epoch = !seen do
      Condition.wait pool.work_ready pool.mutex
    done;
    if pool.stop then begin
      Mutex.unlock pool.mutex;
      running := false
    end
    else begin
      seen := pool.epoch;
      let job = Option.get pool.job in
      Mutex.unlock pool.mutex;
      let outcome = try job index; None with exn -> Some exn in
      Mutex.lock pool.mutex;
      (match outcome with
      | Some _ when pool.failure = None -> pool.failure <- outcome
      | Some _ | None -> ());
      pool.remaining <- pool.remaining - 1;
      if pool.remaining = 0 then Condition.broadcast pool.work_done;
      Mutex.unlock pool.mutex
    end
  done

let pool workers =
  if workers < 1 then invalid_arg "Par_eval.pool: workers must be >= 1";
  let helpers = workers - 1 in
  let pool =
    {
      helpers;
      mutex = Mutex.create ();
      work_ready = Condition.create ();
      work_done = Condition.create ();
      job = None;
      epoch = 0;
      remaining = 0;
      stop = false;
      failure = None;
      domains = [||];
    }
  in
  pool.domains <- Array.init helpers (fun i -> Domain.spawn (fun () -> pool_worker pool (i + 1)));
  pool

(* Run [job d] for every worker index d in [0, helpers]; index 0 executes on
   the calling domain.  Returns once all indices finish; re-raises the first
   failure after the barrier so the pool stays consistent. *)
let pool_run pool job =
  if pool.helpers = 0 then job 0
  else begin
    Mutex.lock pool.mutex;
    pool.job <- Some job;
    pool.epoch <- pool.epoch + 1;
    pool.remaining <- pool.helpers;
    Condition.broadcast pool.work_ready;
    Mutex.unlock pool.mutex;
    let mine = try job 0; None with exn -> Some exn in
    Mutex.lock pool.mutex;
    while pool.remaining > 0 do
      Condition.wait pool.work_done pool.mutex
    done;
    let helper_failure = pool.failure in
    pool.failure <- None;
    pool.job <- None;
    Mutex.unlock pool.mutex;
    match (mine, helper_failure) with
    | Some exn, _ | None, Some exn -> raise exn
    | None, None -> ()
  end

let shutdown pool =
  Mutex.lock pool.mutex;
  pool.stop <- true;
  Condition.broadcast pool.work_ready;
  Mutex.unlock pool.mutex;
  Array.iter Domain.join pool.domains

(* ------------------------------------------------------------------ *)
(* Executor                                                            *)
(* ------------------------------------------------------------------ *)

(* Wave-synchronous upper bound on speedup: with unit job cost, [workers]
   domains need ceil(width / workers) rounds per wave. *)
let ideal_of_widths widths total workers =
  let rounds =
    Array.fold_left
      (fun acc w -> if w > 0 then acc + ((w + workers - 1) / workers) else acc)
      0 widths
  in
  if rounds = 0 then 1.0 else float_of_int total /. float_of_int rounds

let ideal_speedup (sched : Levelize.schedule) workers =
  ideal_of_widths sched.Levelize.widths sched.Levelize.total_bootstraps workers

let sum_counters engines =
  Array.fold_left
    (fun (acc : Gates.batch_counters) e ->
      let c = Wave.counters e in
      {
        Gates.batch_launches = acc.Gates.batch_launches + c.Gates.batch_launches;
        batch_gates = acc.Gates.batch_gates + c.Gates.batch_gates;
        bsk_rows = acc.Gates.bsk_rows + c.Gates.bsk_rows;
        ks_blocks = acc.Gates.ks_blocks + c.Gates.ks_blocks;
      })
    { Gates.batch_launches = 0; batch_gates = 0; bsk_rows = 0; ks_blocks = 0 }
    engines

(* One engine per domain of [pool]; each wave is cut into one contiguous
   slice per domain. *)
let bind (opts : Exec_opts.t) pool cloud =
  let workers = pool.helpers + 1 in
  let p = cloud.Gates.cloud_params in
  (* Transform tables (FFT twiddles or NTT residue tables) are built here,
     before the pool's domains run a job: the caches are atomic
     snapshot/CAS lists, so a helper domain racing a first build would
     duplicate work and churn the cache mid-wave. *)
  Params.precompute p;
  let engines = Array.init workers (fun _ -> Wave.engine cloud ~cap:opts.batch) in
  let per_domain_bootstraps = Array.make workers 0 in
  let per_domain_busy = Array.make workers 0.0 in
  let obs = opts.obs in
  let traced = Trace.enabled obs in
  let ep = Trace.epoch obs in
  let dom_tracks =
    Array.init workers (fun d -> Trace.new_track obs ~name:(Printf.sprintf "domain %d" d))
  in
  let run_wave w =
    let parts = Wave.split w workers in
    let out = Lwe_array.create ~n:p.Params.lwe.Params.n (Wave.outputs w) in
    pool_run pool (fun d ->
        let part, at = parts.(d) in
        let lo = d * Wave.length w / workers and jobs = Wave.length part in
        if jobs > 0 then begin
          let t0 = Unix.gettimeofday () in
          Wave.exec engines.(d) part (Lwe_array.slice out ~pos:at ~len:(Wave.outputs part));
          let t1 = Unix.gettimeofday () in
          per_domain_bootstraps.(d) <- per_domain_bootstraps.(d) + jobs;
          per_domain_busy.(d) <- per_domain_busy.(d) +. (t1 -. t0);
          if traced then
            (* Safe without locks: each domain writes only its own track. *)
            Trace.span dom_tracks.(d) ~cat:"chunk"
              ~name:(Printf.sprintf "jobs [%d,%d)" lo (lo + jobs))
              ~t0:(t0 -. ep) ~t1:(t1 -. ep)
        end);
    out
  in
  (* Only read at pool barriers, where the mutex handshake makes the helper
     domains' counter updates visible. *)
  let last = ref (sum_counters engines) in
  {
    Wave.run_wave;
    capacity = (fun () -> workers * opts.batch);
    workers;
    track = "waves";
    probe =
      (fun tr ->
        let now = sum_counters engines in
        Exec_obs.batch_wave_counters tr p ~cap:opts.batch !last now;
        last := now);
    finish =
      (fun ~start (ws : Wave.stats) ->
        let wall_time = Unix.gettimeofday () -. start in
        let busy = Array.fold_left ( +. ) 0.0 per_domain_busy in
        let c = sum_counters engines in
        {
          workers;
          bootstraps_executed = ws.Wave.bootstraps;
          nots_executed = ws.Wave.nots;
          per_domain_bootstraps;
          per_domain_busy;
          wave_wall = ws.Wave.wave_wall;
          wave_width = ws.Wave.wave_width;
          wall_time;
          achieved_speedup = (if wall_time > 0.0 then busy /. wall_time else 0.0);
          ideal_speedup = ideal_of_widths ws.Wave.wave_width ws.Wave.bootstraps workers;
          batch_size = opts.batch;
          batch_launches = c.Gates.batch_launches;
          bsk_bytes_streamed = c.Gates.bsk_rows * Exec_obs.bsk_row_bytes p;
          ks_bytes_streamed = c.Gates.ks_blocks * Exec_obs.ks_block_bytes p;
        });
    release = ignore;
  }

let pp_stats fmt s =
  Format.fprintf fmt
    "workers=%d bootstraps=%d nots=%d wall=%.3fs speedup=%.2fx (wave-sync ideal %.2fx)@ per-domain bootstraps: %a"
    s.workers s.bootstraps_executed s.nots_executed s.wall_time s.achieved_speedup
    s.ideal_speedup
    (Format.pp_print_list ~pp_sep:(fun fmt () -> Format.fprintf fmt ", ") Format.pp_print_int)
    (Array.to_list s.per_domain_bootstraps)
