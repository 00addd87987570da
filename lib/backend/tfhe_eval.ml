(* The sequential placement: every wave runs on the calling thread's one
   engine.  It is the correctness baseline the other placements are
   compared against. *)

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

let bind (opts : Exec_opts.t) cloud =
  let p = cloud.Gates.cloud_params in
  let e = Wave.engine cloud ~cap:opts.batch in
  let last = ref (Wave.counters e) in
  {
    Wave.run_wave =
      (fun w ->
        let out = Lwe_array.create ~n:p.Params.lwe.Params.n (Wave.outputs w) in
        Wave.exec e w out;
        out);
    capacity = (fun () -> opts.batch);
    workers = 1;
    track = "cpu";
    (* The engine's key traffic for one wave, as the wave's counters. *)
    probe =
      (fun tr ->
        let now = Wave.counters e in
        Exec_obs.batch_wave_counters tr p ~cap:opts.batch !last now;
        last := now);
    finish =
      (fun ~start (ws : Wave.stats) ->
        let c = Wave.counters e in
        {
          bootstraps_executed = ws.Wave.bootstraps;
          nots_executed = ws.Wave.nots;
          wall_time = Unix.gettimeofday () -. start;
          wave_wall = ws.Wave.wave_wall;
          wave_width = ws.Wave.wave_width;
          batch_size = opts.batch;
          batch_launches = c.Gates.batch_launches;
          bsk_bytes_streamed = c.Gates.bsk_rows * Exec_obs.bsk_row_bytes p;
          ks_bytes_streamed = c.Gates.ks_blocks * Exec_obs.ks_block_bytes p;
        });
    release = ignore;
  }
