module Rng = Pytfhe_util.Rng

type key = { key_n : int; bits : int array }
type sample = { a : int array; b : Torus.t }

let key_gen rng ~n = { key_n = n; bits = Array.init n (fun _ -> if Rng.bool rng then 1 else 0) }

let encrypt rng key ~stdev mu =
  let a = Array.init key.key_n (fun _ -> Rng.bits32 rng) in
  let dot = ref 0 in
  for i = 0 to key.key_n - 1 do
    if key.bits.(i) = 1 then dot := Torus.add !dot a.(i)
  done;
  let b = Torus.add_gaussian rng ~stdev (Torus.add !dot mu) in
  { a; b }

let trivial ~n mu = { a = Array.make n 0; b = mu }

let phase key s =
  let dot = ref 0 in
  for i = 0 to key.key_n - 1 do
    if key.bits.(i) = 1 then dot := Torus.add !dot s.a.(i)
  done;
  Torus.sub s.b !dot

let decrypt key ~msize s = Torus.mod_switch_from (phase key s) ~msize

let decrypt_bit key s = Torus.to_double (phase key s) > 0.0

let add x y = { a = Array.map2 Torus.add x.a y.a; b = Torus.add x.b y.b }
let sub x y = { a = Array.map2 Torus.sub x.a y.a; b = Torus.sub x.b y.b }
let neg x = { a = Array.map Torus.neg x.a; b = Torus.neg x.b }
let scale k x = { a = Array.map (Torus.mul_int k) x.a; b = Torus.mul_int k x.b }

let ciphertext_bytes ~n = 4 * (n + 1)

module Wire = Pytfhe_util.Wire

let write_key buf k =
  Wire.write_magic buf "LKEY";
  Wire.write_u32_array buf k.bits

let read_key r =
  Wire.read_magic r "LKEY";
  let bits = Wire.read_u32_array r in
  Array.iter (fun b -> if b <> 0 && b <> 1 then raise (Wire.Corrupt "LWE key bit out of range")) bits;
  { key_n = Array.length bits; bits }

let write_sample buf s =
  Wire.write_magic buf "LSMP";
  Wire.write_u32_array buf s.a;
  Wire.write_u32 buf s.b

let read_sample r =
  Wire.read_magic r "LSMP";
  let a = Wire.read_u32_array r in
  let b = Wire.read_u32 r in
  { a; b }
