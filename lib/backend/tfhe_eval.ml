(* The sequential placement: every wave runs on the calling thread's one
   engine.  It is the correctness baseline the other backends are compared
   against, and the wave source is the shared netlist source. *)

module Trace = Pytfhe_obs.Trace
open Pytfhe_tfhe

type stats = {
  bootstraps_executed : int;
  nots_executed : int;
  wall_time : float;
  wave_wall : float array;
  wave_width : int array;
  batch_size : int;
  batch_launches : int;
  bsk_bytes_streamed : int;
  ks_bytes_streamed : int;
}

let stats_of ~start ~cap p e (ws : Wave.stats) =
  let c = Wave.counters e in
  {
    bootstraps_executed = ws.Wave.bootstraps;
    nots_executed = ws.Wave.nots;
    wall_time = Unix.gettimeofday () -. start;
    wave_wall = ws.Wave.wave_wall;
    wave_width = ws.Wave.wave_width;
    batch_size = cap;
    batch_launches = c.Gates.batch_launches;
    bsk_bytes_streamed = c.Gates.bsk_rows * Exec_obs.bsk_row_bytes p;
    ks_bytes_streamed = c.Gates.ks_blocks * Exec_obs.ks_block_bytes p;
  }

(* The engine's key traffic for one wave, as the wave's trace counters. *)
let traffic_probe p e =
  let last = ref (Wave.counters e) in
  fun tr ->
    let now = Wave.counters e in
    Exec_obs.batch_wave_counters tr p ~cap:(Wave.capacity e) !last now;
    last := now

let run ?(opts = Exec_opts.default) cloud net inputs =
  let start = Unix.gettimeofday () in
  let p = cloud.Gates.cloud_params in
  let e = Wave.engine cloud ~cap:opts.Exec_opts.batch in
  let obs = opts.Exec_opts.obs in
  let outputs, ws =
    Wave.run_netlist ~obs ~track:(Trace.new_track obs ~name:"cpu") ~probe:(traffic_probe p e)
      ~run_wave:(Wave.exec e) cloud net inputs
  in
  (outputs, stats_of ~start ~cap:opts.Exec_opts.batch p e ws)
