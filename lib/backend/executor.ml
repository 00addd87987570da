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

(* ------------------------------------------------------------------ *)
(* Placements                                                          *)
(* ------------------------------------------------------------------ *)

type placement =
  | Cpu
  | Multicore of { workers : int }
  | Multiprocess of { workers : int; config : Dist_eval.config option }

let kind = function Cpu -> "cpu" | Multicore _ -> "par" | Multiprocess _ -> "dist"

(* Round-trippable names: [placement_of_name (placement_name b)] recovers
   [b] (modulo an explicit [config], which has no spelling), and the
   spellings are exactly what the CLI's [--backend] flag accepts, so
   "serve --backend dist" and the bench artifacts agree on names. *)
let placement_name = function
  | Cpu -> "cpu"
  | Multicore { workers } -> if workers = 0 then "par" else Printf.sprintf "par:%d" workers
  | Multiprocess { workers; config } ->
    let w = match config with Some c -> c.Dist_eval.workers | None -> workers in
    Printf.sprintf "dist:%d" w

let placement_of_name s =
  let workers_of tail ~who =
    match int_of_string_opt tail with
    | Some w when w >= 1 -> Ok w
    | _ -> Error (Printf.sprintf "%s: worker count must be a positive integer, got %S" who tail)
  in
  match String.split_on_char ':' s with
  | [ "cpu" ] -> Ok Cpu
  | [ "par" ] -> Ok (Multicore { workers = 0 })
  | [ "par"; w ] -> Result.map (fun workers -> Multicore { workers }) (workers_of w ~who:"par")
  | [ "dist" ] -> Ok (Multiprocess { workers = 2; config = None })
  | [ "dist"; w ] ->
    Result.map (fun workers -> Multiprocess { workers; config = None }) (workers_of w ~who:"dist")
  | _ -> Error (Printf.sprintf "unknown backend %S (expected cpu, par, par:N, dist or dist:N)" s)

let pool = function
  | Multicore { workers } ->
    Some (Par_eval.pool (if workers = 0 then Domain.recommended_domain_count () else workers))
  | Cpu | Multiprocess _ -> None

type binding = detail Wave.binding

let with_detail f (b : _ Wave.binding) =
  { b with Wave.finish = (fun ~start ws -> f (b.Wave.finish ~start ws)) }

let rec bind ?(opts = default_opts) ?pool:shared placement cloud : binding =
  if opts.batch < 1 then invalid_arg "Executor.bind: batch must be >= 1";
  match (placement, shared) with
  | Cpu, _ -> with_detail (fun s -> Cpu_stats s) (Tfhe_eval.bind opts cloud)
  | Multicore _, Some p -> with_detail (fun s -> Multicore_stats s) (Par_eval.bind opts p cloud)
  | Multicore _, None ->
    let p = Option.get (pool placement) in
    { (bind ~opts ~pool:p placement cloud) with Wave.release = (fun () -> Par_eval.shutdown p) }
  | Multiprocess { workers; config }, _ ->
    let cfg = match config with Some c -> c | None -> Dist_eval.config workers in
    with_detail (fun s -> Multiprocess_stats s) (Dist_eval.bind opts cfg cloud)

let run ?(opts = default_opts) ?window placement cloud source inputs =
  let start = Unix.gettimeofday () in
  let c = Wave.cursor ?window cloud source inputs in
  let b = bind ~opts placement cloud in
  Fun.protect ~finally:b.Wave.release (fun () ->
      let outputs, ws = Wave.drive ~obs:opts.obs b c in
      ( outputs,
        {
          backend = kind placement;
          workers = b.Wave.workers;
          bootstraps_executed = ws.Wave.bootstraps;
          nots_executed = ws.Wave.nots;
          wall_time = Unix.gettimeofday () -. start;
          wave_wall = ws.Wave.wave_wall;
          wave_width = ws.Wave.wave_width;
          detail = b.Wave.finish ~start ws;
        } ))

(* ------------------------------------------------------------------ *)
(* First-class views                                                   *)
(* ------------------------------------------------------------------ *)

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

let view placement : (module S) =
  let exec = run in
  (module struct
    let name = kind placement
    let run ?opts cloud net inputs = exec ?opts placement cloud (Wave.Netlist net) inputs

    let run_stream ?opts ?window cloud read inputs =
      exec ?opts ?window placement cloud (Wave.Pull read) inputs
  end)

let cpu = view Cpu
let multicore ?(workers = 0) () = view (Multicore { workers })
let multiprocess ?(workers = 2) ?config () = view (Multiprocess { workers; config })

let pp_stats fmt s =
  Format.fprintf fmt "[%s] workers=%d bootstraps=%d nots=%d wall=%.3fs"
    s.backend s.workers s.bootstraps_executed s.nots_executed s.wall_time;
  match s.detail with
  | Cpu_stats _ -> ()
  | Multicore_stats p -> Format.fprintf fmt "@ %a" Par_eval.pp_stats p
  | Multiprocess_stats d -> Format.fprintf fmt "@ %a" Dist_eval.pp_stats d
