(* Micro-probes of the crypto layers at a workload's own parameters and
   keys, run in the traced mode only: one gate, its blind rotation and key
   switch, a batch-8 launch, and the polynomial transforms. *)

open Pytfhe_tfhe
module Negacyclic = Pytfhe_fft.Negacyclic
module Ntt = Pytfhe_fft.Ntt
module Rng = Pytfhe_util.Rng
open Common

(* Median milliseconds of [reps] calls, each inside a span. *)
let ms_median l name reps f =
  1000.
  *. median
       (Array.init reps (fun _ ->
            span l "tfhe" name (fun () ->
                let t0 = now () in
                ignore (Sys.opaque_identity (f ()));
                now () -. t0)))

(* Per-call microseconds of a transform pair, timed over blocks of [block]
   calls, median over blocks. *)
let transform_us ~block ~blocks ~fwd ~bwd =
  let f = Array.make blocks 0. and b = Array.make blocks 0. in
  for i = 0 to blocks - 1 do
    let t0 = now () in
    for j = 0 to block - 1 do
      fwd j
    done;
    let t1 = now () in
    for j = 0 to block - 1 do
      bwd j
    done;
    let t2 = now () in
    f.(i) <- 1e6 *. (t1 -. t0) /. float_of_int block;
    b.(i) <- 1e6 *. (t2 -. t1) /. float_of_int block
  done;
  (median f, median b)

let run l ~client ~(cloud : Gates.cloud_keyset) ~seed =
  let p = cloud.Gates.cloud_params in
  let n = p.Params.tlwe.Params.ring_n in
  let big = n >= 1024 in
  let reps = if big then 5 else 31 in
  let rng = Rng.create ~seed () in
  let bit () = Pytfhe_core.Client.encrypt_bit client (Rng.bool rng) in
  let a = bit () and b = bit () in
  let gate_ms = ms_median l "nand_gate" reps (fun () -> Gates.nand_gate cloud a b) in
  let bsk = cloud.Gates.bootstrap_key and mu = Params.mu p in
  let extracted = Bootstrap.bootstrap_wo_keyswitch p bsk ~mu a in
  let br_ms = ms_median l "bootstrap_wo_keyswitch" reps (fun () -> Bootstrap.bootstrap_wo_keyswitch p bsk ~mu a) in
  let ks_ms = ms_median l "keyswitch" reps (fun () -> Keyswitch.apply cloud.Gates.keyswitch_key extracted) in
  let bc = Gates.batch_context cloud ~cap:8 in
  let rows = Lwe_array.of_samples ~n:p.Params.lwe.Params.n (Array.init 8 (fun _ -> bit ())) in
  let batch_ms =
    ms_median l "bootstrap_batch_rows" (if big then 3 else 15) (fun () -> Gates.bootstrap_batch_rows bc rows) /. 8.
  in
  let block = 64 and blocks = if big then 15 else 31 in
  let fwd_us, bwd_us =
    span l "fft" (Pytfhe_fft.Transform.kind_name p.Params.transform) (fun () ->
        match p.Params.transform with
        | Pytfhe_fft.Transform.Fft ->
          let polys = Array.init block (fun _ -> Array.init n (fun _ -> float_of_int (Rng.int rng 64 - 32))) in
          let specs = Array.init block (fun _ -> Negacyclic.spectrum_create n) in
          transform_us ~block ~blocks
            ~fwd:(fun j -> Negacyclic.forward_into specs.(j) polys.(j))
            ~bwd:(fun j -> Negacyclic.backward_into polys.(j) specs.(j))
        | Pytfhe_fft.Transform.Ntt ->
          let polys = Array.init block (fun _ -> Array.init n (fun _ -> Rng.int rng 64 - 32)) in
          let specs = Array.init block (fun _ -> Ntt.spectrum_create n) in
          transform_us ~block ~blocks
            ~fwd:(fun j -> Ntt.forward_into specs.(j) polys.(j))
            ~bwd:(fun j -> Ntt.backward_into polys.(j) specs.(j)))
  in
  ( gate_ms,
    [
      ("tfhe.gate_ms", gate_ms);
      ("tfhe.blind_rotate_ms", br_ms);
      ("tfhe.keyswitch_ms", ks_ms);
      ("tfhe.blind_rotate_share", br_ms /. (br_ms +. ks_ms));
      ("tfhe.batch8_gate_ms", batch_ms);
      ("fft.forward_us", fwd_us);
      ("fft.backward_us", bwd_us);
    ] )
