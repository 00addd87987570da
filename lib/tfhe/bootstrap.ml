type context = { ws : Tgsw.workspace; testvect : Poly.torus_poly; acc : Tlwe.sample }

let context_create (p : Params.t) =
  let n = p.tlwe.ring_n in
  {
    ws = Tgsw.workspace_create p;
    testvect = Array.make n 0;
    acc = Tlwe.trivial p (Poly.zero n);
  }

type key = { bsk : Tgsw.fft_sample array; ctx : context }

let default_context key = key.ctx

let key_gen rng (p : Params.t) ~lwe_key ~tlwe_key =
  let encrypt_bit b = Tgsw.to_fft p (Tgsw.encrypt_int rng p tlwe_key b) in
  let bsk = Array.map encrypt_bit lwe_key.Lwe.bits in
  { bsk; ctx = context_create p }

(* The allocation-free core: acc is overwritten with the rotation of
   [testvect] by X^{−phase·2N}, then folded through the in-place CMux
   recurrence acc ← acc + bskᵢ ⊡ ((X^{āᵢ} − 1)·acc).  All scratch lives in
   [ws]; a steady-state call allocates nothing. *)
let blind_rotate_into (p : Params.t) ws key ~testvect ~(acc : Tlwe.sample) (s : Lwe.sample) =
  let n = p.tlwe.ring_n in
  let n2 = 2 * n in
  let barb = Torus.mod_switch_from s.b ~msize:n2 in
  Array.iter (fun m -> Array.fill m 0 n 0) acc.Tlwe.mask;
  Poly.mul_by_xai_into acc.Tlwe.body ((n2 - barb) mod n2) testvect;
  for i = 0 to Array.length s.a - 1 do
    let barai = Torus.mod_switch_from s.a.(i) ~msize:n2 in
    if barai <> 0 then Tgsw.cmux_rotate_into p ws key.bsk.(i) barai acc
  done

let blind_rotate_with (p : Params.t) ws key ~testvect (s : Lwe.sample) =
  let acc = Tlwe.trivial p (Poly.zero p.tlwe.ring_n) in
  blind_rotate_into p ws key ~testvect ~acc s;
  acc

let blind_rotate p key ~testvect s = blind_rotate_with p key.ctx.ws key ~testvect s

let bootstrap_with p ctx key ~mu s =
  (* The sign test vector is constant per call: refill the per-context
     buffer instead of allocating a ring-degree array on every gate, and
     rotate into the context accumulator. *)
  Array.fill ctx.testvect 0 (Array.length ctx.testvect) mu;
  blind_rotate_into p ctx.ws key ~testvect:ctx.testvect ~acc:ctx.acc s;
  Tlwe.extract_lwe p ctx.acc

let bootstrap_wo_keyswitch p key ~mu s = bootstrap_with p key.ctx key ~mu s

let key_bytes (p : Params.t) =
  let rows = (p.tlwe.k + 1) * p.tgsw.l in
  p.lwe.n * rows * (p.tlwe.k + 1) * p.tlwe.ring_n * 4

module Wire = Pytfhe_util.Wire

let write buf k =
  Wire.write_magic buf "BSKY";
  Wire.write_array buf Tgsw.write_fft k.bsk

let read p r =
  Wire.read_magic r "BSKY";
  let bsk = Wire.read_array r (fun r -> Tgsw.read_fft p r) in
  if Array.length bsk <> p.Params.lwe.Params.n then
    raise (Wire.Corrupt "bootstrapping key length does not match LWE dimension");
  { bsk; ctx = context_create p }

(* Centre the phase inside its slot so symmetric noise cannot push it
   across a slot boundary. *)
let centring ~msize = Torus.mod_switch_to 1 ~msize:(4 * msize)

let programmable (p : Params.t) key ~msize f s =
  let n = p.Params.tlwe.ring_n in
  if msize <= 0 || n mod msize <> 0 then
    invalid_arg "Bootstrap.programmable: msize must divide the ring degree";
  let slot = n / msize in
  let testvect = Array.init n (fun j -> f (j / slot)) in
  let centred = { s with Lwe.b = Torus.add s.Lwe.b (centring ~msize) } in
  let rotated = blind_rotate p key ~testvect centred in
  Tlwe.extract_lwe p rotated

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

let fill_lut_testvect (p : Params.t) ~msize tv =
  let n = p.Params.tlwe.ring_n in
  if msize <= 0 || n mod msize <> 0 then
    invalid_arg "Bootstrap.fill_lut_testvect: msize must divide the ring degree";
  let slot = n / msize in
  Array.fill tv 0 ((msize - 1) * slot) 0;
  Array.fill tv ((msize - 1) * slot) slot lut_amplitude

(* Index by message value m: indicator m sits at slot (msize−1−m)·N/msize. *)
let indicator_pos (p : Params.t) ~msize m = (msize - 1 - m) * (p.Params.tlwe.ring_n / msize)

let lut_extract_indicators (p : Params.t) ~msize acc =
  Array.init msize (fun m -> Tlwe.extract_lwe_at p ~pos:(indicator_pos p ~msize m) acc)

let lut_indicators (p : Params.t) ctx key ~msize s =
  fill_lut_testvect p ~msize ctx.testvect;
  let centred = { s with Lwe.b = Torus.add s.Lwe.b (centring ~msize) } in
  blind_rotate_into p ctx.ws key ~testvect:ctx.testvect ~acc:ctx.acc centred;
  lut_extract_indicators p ~msize ctx.acc

(* ------------------------------------------------------------------ *)
(* The batched bootstrap (key streaming)                               *)
(* ------------------------------------------------------------------ *)

(* A launch of B rows shares one pass over the bootstrapping key: the outer
   loop walks the n TGSW entries once and the inner loop applies each
   entry's CMux-rotate step to all B accumulators, so the key is streamed
   from memory once per launch instead of once per row.  The accumulators
   are rows of one flat [Trlwe_array], so the inner sweep touches
   contiguous storage while key entry i stays resident.  Per row the
   operation sequence (test vector, rotation amounts, CMux order, float
   conversions, extraction) is the scalar walk's, and every
   [Tgsw.cmux_rotate_row_into] call fully overwrites its workspace
   scratch, so each slot is ciphertext-bit-exact with {!bootstrap_with}
   or {!lut_indicators}. *)

type job = Job_sign of Torus.t | Job_lut of int

let job_slots = function Job_sign _ -> 1 | Job_lut msize -> msize

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
        | Job_sign _ -> Trlwe_array.extract_row_into bt.taccs ~row:b ~pos:0 dst ~drow:!d
        | Job_lut msize ->
          for m = 0 to msize - 1 do
            Trlwe_array.extract_row_into bt.taccs ~row:b ~pos:(indicator_pos p ~msize m) dst
              ~drow:(!d + m)
          done);
        d := !d + job_slots job)
      jobs
  end
