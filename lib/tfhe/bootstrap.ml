(* ------------------------------------------------------------------ *)
(* The batched bootstrap (key streaming)                               *)
(* ------------------------------------------------------------------ *)

(* A launch of B rows shares one pass over the bootstrapping key: the outer
   loop walks the n TGSW entries once and the inner loop applies each
   entry's CMux-rotate step to all B accumulators, so the key is streamed
   from memory once per launch instead of once per row.  The accumulators
   are rows of one flat [Trlwe_array], so the inner sweep touches
   contiguous storage while key entry i stays resident.  Every
   [Tgsw.cmux_rotate_row_into] call fully overwrites its workspace
   scratch, so a row's result does not depend on the rows launched beside
   it. *)

type job = Job_sign of Torus.t | Job_lut of int | Job_table of Torus.t array

let job_slots = function Job_sign _ | Job_table _ -> 1 | Job_lut msize -> msize

type batch = {
  bcap : int;
  bws : Tgsw.workspace;
  btestvect : Poly.torus_poly;
  taccs : Trlwe_array.t;  (* one accumulator row per job *)
  (* Key-traffic accounting, drained by the executors' obs counters. *)
  mutable bsk_rows_streamed : int;
  mutable launches : int;
  mutable gates_batched : int;
}

let batch_create (p : Params.t) ~cap =
  if cap < 1 then invalid_arg "Bootstrap.batch_create: cap must be >= 1";
  {
    bcap = cap;
    bws = Tgsw.workspace_create p;
    btestvect = Array.make p.tlwe.ring_n 0;
    taccs = Trlwe_array.create p ~cap;
    bsk_rows_streamed = 0;
    launches = 0;
    gates_batched = 0;
  }

let batch_capacity (bt : batch) = bt.bcap

type batch_stats = { bsk_rows_streamed : int; launches : int; gates_batched : int }

let batch_stats (bt : batch) : batch_stats =
  {
    bsk_rows_streamed = bt.bsk_rows_streamed;
    launches = bt.launches;
    gates_batched = bt.gates_batched;
  }

let batch_reset_stats (bt : batch) =
  bt.bsk_rows_streamed <- 0;
  bt.launches <- 0;
  bt.gates_batched <- 0

let row_bytes (p : Params.t) =
  (* One bootstrapping-key entry in evaluation form: (k+1)·l TGSW rows of
     (k+1) component spectra — FFT: N/2 complex bins at two 8-byte floats;
     NTT: N residues under each of the two ~30-bit primes at 4 bytes. *)
  let rows = (p.tlwe.k + 1) * p.tgsw.l in
  match p.transform with
  | Pytfhe_fft.Transform.Fft -> rows * (p.tlwe.k + 1) * (p.tlwe.ring_n / 2) * 16
  | Pytfhe_fft.Transform.Ntt -> rows * (p.tlwe.k + 1) * p.tlwe.ring_n * 8

(* The scalar calls share a two-row workspace (MUX launches two rows),
   made on first use so that key generation, key reads, dist workers and
   service tenants allocate none. *)
type key = { bsk : Tgsw.fft_sample array; kparams : Params.t; scratch : batch Lazy.t }

let with_scratch (p : Params.t) bsk = { bsk; kparams = p; scratch = lazy (batch_create p ~cap:2) }
let scratch key = Lazy.force key.scratch

let key_gen rng (p : Params.t) ~lwe_key ~tlwe_key =
  let encrypt_bit b = Tgsw.to_fft p (Tgsw.encrypt_int rng p tlwe_key b) in
  with_scratch p (Array.map encrypt_bit lwe_key.Lwe.bits)

(* ------------------------------------------------------------------ *)
(* Indicator bootstrapping for LUT cells                               *)
(* ------------------------------------------------------------------ *)

(* Every 2-/3-input LUT cell runs the same table-independent rotation: the
   test vector is a staircase whose top slot carries 1/16 (the lutdom unit)
   and the table is applied afterwards, as a sum of extracted indicator
   slots.  Extracting coefficient k·slot of the rotated accumulator yields
   an encryption of [m = msize−1−k]/16: writing u = m + k, the read lands
   on slot u for u ≤ msize−1 (positive sign, only u = msize−1 is hot) and
   on slot u − msize with a negacyclic sign flip otherwise — where the
   staircase is 0 because u − msize ≤ msize−2.  One blind rotation thus
   serves any number of tables over the same inputs (multi-value
   bootstrapping), and fusing nodes that share inputs is pure memoization:
   the rotation is deterministic, so fused and unfused execution are
   bit-identical. *)

let lut_amplitude = Torus.mod_switch_to 1 ~msize:16

let check_msize (p : Params.t) who msize =
  if msize <= 0 || p.Params.tlwe.ring_n mod msize <> 0 then
    invalid_arg (who ^ ": msize must divide the ring degree")

let fill_lut_testvect (p : Params.t) ~msize tv =
  check_msize p "Bootstrap.fill_lut_testvect" msize;
  let slot = p.Params.tlwe.ring_n / msize in
  Array.fill tv 0 ((msize - 1) * slot) 0;
  Array.fill tv ((msize - 1) * slot) slot lut_amplitude

(* Index by message value m: indicator m sits at slot (msize−1−m)·N/msize. *)
let indicator_pos (p : Params.t) ~msize m = (msize - 1 - m) * (p.Params.tlwe.ring_n / msize)

(* Centre the phase inside its slot so symmetric noise cannot push it
   across a slot boundary. *)
let centring ~msize = Torus.mod_switch_to 1 ~msize:(4 * msize)

(* ------------------------------------------------------------------ *)
(* The row kernel                                                      *)
(* ------------------------------------------------------------------ *)

let batch_rows_into (p : Params.t) (bt : batch) key (jobs : job array) ~(src : Lwe_array.t)
    ~(dst : Lwe_array.t) =
  let count = Lwe_array.length src in
  if Array.length jobs <> count then invalid_arg "Bootstrap.batch_rows_into: one job per row";
  if count > bt.bcap then
    invalid_arg "Bootstrap.batch_rows_into: batch larger than the workspace capacity";
  if Lwe_array.dim src <> Array.length key.bsk then
    invalid_arg "Bootstrap.batch_rows_into: input dimension does not match the key";
  if Lwe_array.dim dst <> p.Params.tlwe.k * p.Params.tlwe.ring_n then
    invalid_arg "Bootstrap.batch_rows_into: destination dimension is not the extracted one";
  if Lwe_array.length dst < Array.fold_left (fun acc j -> acc + job_slots j) 0 jobs then
    invalid_arg "Bootstrap.batch_rows_into: destination shorter than the batch's slots";
  Array.iter
    (function
      | Job_sign _ -> ()
      | Job_lut msize -> check_msize p "Bootstrap.batch_rows_into" msize
      | Job_table t -> check_msize p "Bootstrap.batch_rows_into" (Array.length t))
    jobs;
  if count > 0 then begin
    let n = p.tlwe.ring_n in
    let n2 = 2 * n in
    Array.iteri
      (fun b job ->
        let body =
          match job with
          | Job_sign mu ->
            Array.fill bt.btestvect 0 n mu;
            Lwe_array.body src b
          | Job_lut msize ->
            fill_lut_testvect p ~msize bt.btestvect;
            Torus.add (Lwe_array.body src b) (centring ~msize)
          | Job_table t ->
            let msize = Array.length t in
            let slot = n / msize in
            for j = 0 to n - 1 do
              bt.btestvect.(j) <- t.(j / slot)
            done;
            Torus.add (Lwe_array.body src b) (centring ~msize)
        in
        Trlwe_array.clear_masks bt.taccs b;
        let barb = Torus.mod_switch_from body ~msize:n2 in
        Trlwe_array.rotate_body_from bt.taccs b ((n2 - barb) mod n2) bt.btestvect)
      jobs;
    for i = 0 to Array.length key.bsk - 1 do
      let touched = ref false in
      for b = 0 to count - 1 do
        let barai = Torus.mod_switch_from (Lwe_array.mask src b i) ~msize:n2 in
        if barai <> 0 then begin
          touched := true;
          Tgsw.cmux_rotate_row_into p bt.bws key.bsk.(i) barai bt.taccs ~row:b
        end
      done;
      if !touched then bt.bsk_rows_streamed <- bt.bsk_rows_streamed + 1
    done;
    bt.launches <- bt.launches + 1;
    bt.gates_batched <- bt.gates_batched + count;
    let d = ref 0 in
    Array.iteri
      (fun b job ->
        (match job with
        | Job_sign _ | Job_table _ ->
          Trlwe_array.extract_row_into bt.taccs ~row:b ~pos:0 dst ~drow:!d
        | Job_lut msize ->
          for m = 0 to msize - 1 do
            Trlwe_array.extract_row_into bt.taccs ~row:b ~pos:(indicator_pos p ~msize m) dst
              ~drow:(!d + m)
          done);
        d := !d + job_slots job)
      jobs
  end

(* ------------------------------------------------------------------ *)
(* Scalar calls: one-row launches on the key's workspace               *)
(* ------------------------------------------------------------------ *)

let launch_one (p : Params.t) key job (s : Lwe.sample) =
  let dst = Lwe_array.create ~n:(p.tlwe.k * p.tlwe.ring_n) 1 in
  batch_rows_into p (scratch key) key [| job |]
    ~src:(Lwe_array.of_samples ~n:(Array.length key.bsk) [| s |])
    ~dst;
  Lwe_array.get dst 0

let bootstrap_wo_keyswitch p key ~mu s = launch_one p key (Job_sign mu) s

let programmable (p : Params.t) key ~msize f s =
  check_msize p "Bootstrap.programmable" msize;
  launch_one p key (Job_table (Array.init msize f)) s

let key_bytes (p : Params.t) =
  let rows = (p.tlwe.k + 1) * p.tgsw.l in
  p.lwe.n * rows * (p.tlwe.k + 1) * p.tlwe.ring_n * 4

module Wire = Pytfhe_util.Wire

(* One u32 block of the key's torus coefficients — entry, TGSW row,
   component (k masks, then the body), coefficient — for both transforms:
   the writer inverts each spectrum, and the reader runs every polynomial
   through the forward transform key generation uses. *)
let write buf key =
  Wire.write_magic buf "BSKY";
  Wire.write_i64 buf (key_bytes key.kparams / 4);
  Array.iter
    (fun (g : Tgsw.fft_sample) ->
      Array.iter
        (Array.iter (fun d -> Array.iter (Wire.write_u32 buf) (Pytfhe_fft.Transform.backward_signed d)))
        g.frows)
    key.bsk

let read (p : Params.t) r =
  Wire.read_magic r "BSKY";
  let k = p.tlwe.k and ring_n = p.tlwe.ring_n in
  ignore (Wire.read_block_length r [ p.lwe.n; k + 1; p.tgsw.l; k + 1; ring_n ]);
  let coeffs = Array.make ring_n 0 in
  let poly _ =
    Wire.read_u32_into r coeffs;
    Tgsw.forward_torus p coeffs
  in
  let entry _ = { Tgsw.frows = Array.init ((k + 1) * p.tgsw.l) (fun _ -> Array.init (k + 1) poly) } in
  with_scratch p (Array.init p.lwe.n entry)
