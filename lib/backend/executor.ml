type opts = Exec_opts.t = { obs : Pytfhe_obs.Trace.sink; batch : int }

let default_opts = Exec_opts.default

type detail =
  | Cpu_stats of Tfhe_eval.stats
  | Multicore_stats of Par_eval.stats
  | Multiprocess_stats of Dist_eval.stats

type stats = {
  backend : string;
  workers : int;
  bootstraps_executed : int;
  nots_executed : int;
  wall_time : float;
  wave_wall : float array;
  wave_width : int array;
  detail : detail;
}

module type S = sig
  val name : string

  val run :
    ?opts:opts ->
    Pytfhe_tfhe.Gates.cloud_keyset ->
    Pytfhe_circuit.Netlist.t ->
    Pytfhe_tfhe.Lwe.sample array ->
    Pytfhe_tfhe.Lwe.sample array * stats

  val run_stream :
    ?opts:opts ->
    ?window:int ->
    Pytfhe_tfhe.Gates.cloud_keyset ->
    (unit -> bytes option) ->
    Pytfhe_tfhe.Lwe.sample array ->
    Pytfhe_tfhe.Lwe.sample array * stats
end

let cpu : (module S) =
  (module struct
    let name = "cpu"

    let run ?opts cloud net inputs =
      let outputs, s = Tfhe_eval.run ?opts cloud net inputs in
      ( outputs,
        {
          backend = name;
          workers = 1;
          bootstraps_executed = s.Tfhe_eval.bootstraps_executed;
          nots_executed = s.Tfhe_eval.nots_executed;
          wall_time = s.Tfhe_eval.wall_time;
          wave_wall = s.Tfhe_eval.wave_wall;
          wave_width = s.Tfhe_eval.wave_width;
          detail = Cpu_stats s;
        } )

    let run_stream ?opts ?window cloud read inputs =
      let outputs, s = Stream_exec.run_encrypted_stream ?opts ?window cloud read inputs in
      ( outputs,
        {
          backend = name;
          workers = 1;
          bootstraps_executed = s.Tfhe_eval.bootstraps_executed;
          nots_executed = s.Tfhe_eval.nots_executed;
          wall_time = s.Tfhe_eval.wall_time;
          wave_wall = s.Tfhe_eval.wave_wall;
          wave_width = s.Tfhe_eval.wave_width;
          detail = Cpu_stats s;
        } )
  end)

let multicore ?workers () : (module S) =
  (module struct
    let name = "par"

    let run ?opts cloud net inputs =
      let outputs, s = Par_eval.run ?workers ?opts cloud net inputs in
      ( outputs,
        {
          backend = name;
          workers = s.Par_eval.workers;
          bootstraps_executed = s.Par_eval.bootstraps_executed;
          nots_executed = s.Par_eval.nots_executed;
          wall_time = s.Par_eval.wall_time;
          wave_wall = s.Par_eval.wave_wall;
          wave_width = s.Par_eval.wave_width;
          detail = Multicore_stats s;
        } )

    let run_stream ?opts ?window cloud read inputs =
      let outputs, s = Par_eval.run_stream ?workers ?opts ?window cloud read inputs in
      ( outputs,
        {
          backend = name;
          workers = s.Par_eval.workers;
          bootstraps_executed = s.Par_eval.bootstraps_executed;
          nots_executed = s.Par_eval.nots_executed;
          wall_time = s.Par_eval.wall_time;
          wave_wall = s.Par_eval.wave_wall;
          wave_width = s.Par_eval.wave_width;
          detail = Multicore_stats s;
        } )
  end)

let multiprocess ?workers ?config () : (module S) =
  let cfg =
    match config with
    | Some c -> c
    | None -> Dist_eval.config (match workers with Some w -> w | None -> 2)
  in
  (module struct
    let name = "dist"

    let run ?opts cloud net inputs =
      let outputs, s = Dist_eval.run ?opts cfg cloud net inputs in
      ( outputs,
        {
          backend = name;
          workers = s.Dist_eval.workers_started;
          bootstraps_executed = s.Dist_eval.bootstraps_executed;
          nots_executed = s.Dist_eval.nots_executed;
          wall_time = s.Dist_eval.wall_time;
          wave_wall = s.Dist_eval.wave_wall;
          wave_width = s.Dist_eval.wave_width;
          detail = Multiprocess_stats s;
        } )

    let run_stream ?opts ?window cloud read inputs =
      let outputs, s = Dist_eval.run_stream ?opts ?window cfg cloud read inputs in
      ( outputs,
        {
          backend = name;
          workers = s.Dist_eval.workers_started;
          bootstraps_executed = s.Dist_eval.bootstraps_executed;
          nots_executed = s.Dist_eval.nots_executed;
          wall_time = s.Dist_eval.wall_time;
          wave_wall = s.Dist_eval.wave_wall;
          wave_width = s.Dist_eval.wave_width;
          detail = Multiprocess_stats s;
        } )
  end)

let pp_stats fmt s =
  Format.fprintf fmt "[%s] workers=%d bootstraps=%d nots=%d wall=%.3fs"
    s.backend s.workers s.bootstraps_executed s.nots_executed s.wall_time;
  match s.detail with
  | Cpu_stats _ -> ()
  | Multicore_stats p -> Format.fprintf fmt "@ %a" Par_eval.pp_stats p
  | Multiprocess_stats d -> Format.fprintf fmt "@ %a" Dist_eval.pp_stats d
