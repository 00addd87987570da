module Rng = Pytfhe_util.Rng

type key = { polys : Poly.int_poly array }
type sample = { mask : Poly.torus_poly array; body : Poly.torus_poly }

let key_gen rng (p : Params.t) =
  let n = p.tlwe.ring_n in
  let poly _ = Array.init n (fun _ -> if Rng.bool rng then 1 else 0) in
  { polys = Array.init p.tlwe.k poly }

let uniform_poly rng n = Array.init n (fun _ -> Rng.bits32 rng)

let key_times_mask key (mask : Poly.torus_poly array) =
  let k = Array.length key.polys in
  let n = Array.length mask.(0) in
  let acc = Poly.zero n in
  for i = 0 to k - 1 do
    Poly.add_to acc (Poly.mul_int_torus key.polys.(i) mask.(i))
  done;
  acc

let encrypt_poly rng (p : Params.t) key msg =
  let n = p.tlwe.ring_n in
  let mask = Array.init p.tlwe.k (fun _ -> uniform_poly rng n) in
  let body = key_times_mask key mask in
  let stdev = p.tlwe.tlwe_stdev in
  let body =
    Array.mapi (fun i dot -> Torus.add_gaussian rng ~stdev (Torus.add dot msg.(i))) body
  in
  { mask; body }

let zero_sample rng p key = encrypt_poly rng p key (Poly.zero p.tlwe.ring_n)

let trivial (p : Params.t) msg =
  { mask = Array.init p.tlwe.k (fun _ -> Poly.zero p.tlwe.ring_n); body = Array.copy msg }

let phase key s = Poly.sub s.body (key_times_mask key s.mask)

let copy s = { mask = Array.map Array.copy s.mask; body = Array.copy s.body }

let add_to dst src =
  Array.iteri (fun i m -> Poly.add_to dst.mask.(i) m) src.mask;
  Poly.add_to dst.body src.body

let sub_to dst src =
  Array.iteri (fun i m -> Poly.sub_to dst.mask.(i) m) src.mask;
  Poly.sub_to dst.body src.body

let extract_lwe_at (p : Params.t) ~pos s =
  let n = p.tlwe.ring_n in
  let k = p.tlwe.k in
  if pos < 0 || pos >= n then invalid_arg "Tlwe.extract_lwe_at: position out of range";
  let a = Array.make (k * n) 0 in
  for i = 0 to k - 1 do
    let poly = s.mask.(i) in
    for j = 0 to pos do
      a.((i * n) + j) <- poly.(pos - j)
    done;
    for j = pos + 1 to n - 1 do
      a.((i * n) + j) <- Torus.neg poly.(n + pos - j)
    done
  done;
  { Lwe.a; b = s.body.(pos) }

let extract_key key =
  let k = Array.length key.polys in
  let n = Array.length key.polys.(0) in
  let bits = Array.make (k * n) 0 in
  for i = 0 to k - 1 do
    Array.blit key.polys.(i) 0 bits (i * n) n
  done;
  { Lwe.key_n = k * n; bits }

module Wire = Pytfhe_util.Wire

let write_key buf k =
  Wire.write_magic buf "RKEY";
  Wire.write_array buf Wire.write_u32_array k.polys

let read_key r =
  Wire.read_magic r "RKEY";
  { polys = Wire.read_array r Wire.read_u32_array }
