module Rng = Pytfhe_util.Rng
module Negacyclic = Pytfhe_fft.Negacyclic
module Ntt = Pytfhe_fft.Ntt
module Transform = Pytfhe_fft.Transform

type sample = { rows : Tlwe.sample array }

type fft_sample = { frows : Transform.domain array array }
(* frows.(r).(c): evaluation-domain form (FFT spectrum or NTT residues,
   per the parameter set's transform) of component c (k masks then body)
   of row r. *)

type gadget = {
  g_l : int;
  g_bg_bit : int;
  g_half_bg : int;
  g_mask_bg : int;
  g_offset : int;  (* Σⱼ (Bg/2)·2^{32−j·bg_bit}: recentres digits once, hoisted
                      out of the per-coefficient loop. *)
}

let gadget (p : Params.t) =
  let l = p.tgsw.l in
  let bg_bit = p.tgsw.bg_bit in
  let bg = 1 lsl bg_bit in
  let half_bg = bg / 2 in
  let offset =
    let o = ref 0 in
    for j = 1 to l do
      o := !o + (half_bg lsl (32 - (j * bg_bit)))
    done;
    !o land 0xFFFFFFFF
  in
  { g_l = l; g_bg_bit = bg_bit; g_half_bg = half_bg; g_mask_bg = bg - 1; g_offset = offset }

type workspace = {
  wgadget : gadget;  (* decomposition constants, computed once per workspace *)
  dec : Poly.int_poly array;  (* (k+1)*l decomposition digit polynomials *)
  dec_float : float array;  (* FFT-path staging for the forward transform *)
  dec_domain : Transform.domain;
  acc_domains : Transform.domain array;  (* k+1 accumulators *)
  result_float : float array;  (* FFT backward output *)
  result_int : int array;  (* NTT backward output (exact signed) *)
  rot : Tlwe.sample;  (* (X^a − 1)·acc scratch for the blind-rotation step *)
}

let rows_count (p : Params.t) = (p.tlwe.k + 1) * p.tgsw.l

let encrypt_int rng (p : Params.t) key m =
  let l = p.tgsw.l in
  let bg_bit = p.tgsw.bg_bit in
  let rows =
    Array.init (rows_count p) (fun r ->
        let i = r / l and j = r mod l in
        let z = Tlwe.zero_sample rng p key in
        (* Add m/Bg^{j+1}: the torus element m · 2^{32 − (j+1)·bg_bit}. *)
        let h = Torus.mul_int m (1 lsl (32 - ((j + 1) * bg_bit)) land 0xFFFFFFFF) in
        let target = if i < p.tlwe.k then z.mask.(i) else z.body in
        target.(0) <- Torus.add target.(0) h;
        z)
  in
  { rows }

let forward_torus (p : Params.t) poly =
  Transform.forward_signed p.transform (Array.map Torus.to_signed poly)

let to_fft (p : Params.t) s =
  let components (row : Tlwe.sample) =
    Array.map (forward_torus p) (Array.append row.mask [| row.body |])
  in
  { frows = Array.map components s.rows }

(* The single decomposition kernel both entry points share: digits of
   component [i] land in rows [i*l .. i*l + l − 1] of [dst]. *)
let decompose_component g (dst : Poly.int_poly array) i (poly : Poly.torus_poly) =
  let n = Array.length poly in
  let l = g.g_l in
  let bg_bit = g.g_bg_bit in
  let half_bg = g.g_half_bg in
  let mask_bg = g.g_mask_bg in
  let offset = g.g_offset in
  for t = 0 to n - 1 do
    let v = (Array.unsafe_get poly t + offset) land 0xFFFFFFFF in
    for j = 0 to l - 1 do
      let digit = (v lsr (32 - ((j + 1) * bg_bit))) land mask_bg in
      Array.unsafe_set dst.((i * l) + j) t (digit - half_bg)
    done
  done

let decompose_rows g k (dst : Poly.int_poly array) (c : Tlwe.sample) =
  Array.iteri (decompose_component g dst) c.mask;
  decompose_component g dst k c.body

let decompose (p : Params.t) (c : Tlwe.sample) =
  let n = p.tlwe.ring_n in
  let out = Array.init (rows_count p) (fun _ -> Array.make n 0) in
  decompose_rows (gadget p) p.tlwe.k out c;
  out

let workspace_create (p : Params.t) =
  let n = p.tlwe.ring_n in
  (* Fill the selected transform's tables for this ring degree now, while
     we are still single-threaded: workspaces are per-domain scratch, and
     the transforms they feed must not fault in shared tables
     concurrently. *)
  Transform.precompute p.transform n;
  {
    wgadget = gadget p;
    dec = Array.init (rows_count p) (fun _ -> Array.make n 0);
    dec_float = Array.make n 0.0;
    dec_domain = Transform.create p.transform n;
    acc_domains = Array.init (p.tlwe.k + 1) (fun _ -> Transform.create p.transform n);
    result_float = Array.make n 0.0;
    result_int = Array.make n 0;
    rot = Tlwe.trivial p (Poly.zero n);
  }

(* In-place decomposition into the workspace to avoid per-call allocation. *)
let decompose_into (p : Params.t) ws (c : Tlwe.sample) =
  decompose_rows ws.wgadget p.tlwe.k ws.dec c

(* The dispatch layer proper: the only places the two transform backends
   diverge are the digit-row forward (the FFT stages through floats, the
   NTT consumes the integer digits directly) and the backward landing (the
   FFT rounds floats, the NTT masks exact integers). *)

let forward_digits ws (digits : Poly.int_poly) =
  match ws.dec_domain with
  | Transform.Dfft s ->
    let n = Array.length digits in
    for t = 0 to n - 1 do
      ws.dec_float.(t) <- float_of_int (Array.unsafe_get digits t)
    done;
    Negacyclic.forward_into s ws.dec_float
  | Transform.Dntt s -> Ntt.forward_into s digits

(* backward_into destroys the accumulator domain — safe here because
   [product_spectra] rebuilds every accumulator from scratch on the next
   call (see the contract in negacyclic.mli, shared by ntt.mli).  The
   landing into the accumulator row is [Trlwe_array]'s. *)
let backward_add_row ws comp (tr : Trlwe_array.t) ~row =
  match ws.acc_domains.(comp) with
  | Transform.Dfft s ->
    Negacyclic.backward_into ws.result_float s;
    Trlwe_array.add_floats_to tr ~row ~comp ws.result_float
  | Transform.Dntt s ->
    Ntt.backward_into ws.result_int s;
    Trlwe_array.add_ints_to tr ~row ~comp ws.result_int

(* Decompose [src], push every digit row through the forward transform and
   accumulate the row × bootstrapping-key products in the evaluation
   domain, leaving the k+1 component accumulators in [ws.acc_domains]. *)
let product_spectra (p : Params.t) ws (g : fft_sample) (src : Tlwe.sample) =
  let k = p.tlwe.k in
  decompose_into p ws src;
  Array.iter Transform.zero ws.acc_domains;
  for r = 0 to rows_count p - 1 do
    forward_digits ws ws.dec.(r);
    for comp = 0 to k do
      Transform.mul_add_into ws.acc_domains.(comp) ws.dec_domain g.frows.(r).(comp)
    done
  done

let cmux_rotate_row_into (p : Params.t) ws (g : fft_sample) a (tr : Trlwe_array.t) ~row =
  (* acc ← acc + g ⊡ ((X^a − 1)·acc): the CMux between acc and X^a·acc,
     written as the in-place blind-rotation recurrence on one flat
     [Trlwe_array] row.  The rotation difference stages through [ws.rot]
     (the transform pipeline consumes record-shaped polynomials); only
     workspace scratch is touched — no ring-sized allocation. *)
  Trlwe_array.rotate_diff_into tr ~row a ws.rot;
  product_spectra p ws g ws.rot;
  for comp = 0 to p.tlwe.k do
    backward_add_row ws comp tr ~row
  done
