module Negacyclic = Pytfhe_fft.Negacyclic

type torus_poly = int array
type int_poly = int array

let zero n = Array.make n 0

let add a b = Array.map2 Torus.add a b

let add_to dst src =
  for i = 0 to Array.length dst - 1 do
    dst.(i) <- Torus.add dst.(i) src.(i)
  done

let sub a b = Array.map2 Torus.sub a b

let sub_to dst src =
  for i = 0 to Array.length dst - 1 do
    dst.(i) <- Torus.sub dst.(i) src.(i)
  done

let neg a = Array.map Torus.neg a

let check_rotation name a n =
  if a < 0 || a >= 2 * n then invalid_arg (name ^ ": exponent out of [0, 2N)")

let mul_by_xai_into dst a p =
  let n = Array.length p in
  check_rotation "Poly.mul_by_xai_into" a n;
  if Array.length dst <> n then invalid_arg "Poly.mul_by_xai_into: size mismatch";
  if dst == p then invalid_arg "Poly.mul_by_xai_into: dst must not alias p";
  if a = 0 then Array.blit p 0 dst 0 n
  else if a < n then begin
    (* Coefficient j of p lands at j + a; wrapping past N flips sign. *)
    for j = 0 to n - 1 - a do
      Array.unsafe_set dst (j + a) (Array.unsafe_get p j)
    done;
    for j = n - a to n - 1 do
      Array.unsafe_set dst (j + a - n) (Torus.neg (Array.unsafe_get p j))
    done
  end
  else begin
    let a' = a - n in
    for j = 0 to n - 1 - a' do
      Array.unsafe_set dst (j + a') (Torus.neg (Array.unsafe_get p j))
    done;
    for j = n - a' to n - 1 do
      Array.unsafe_set dst (j + a' - n) (Array.unsafe_get p j)
    done
  end

let mul_by_xai a p =
  let n = Array.length p in
  check_rotation "Poly.mul_by_xai" a n;
  if a = 0 then Array.copy p
  else begin
    let out = Array.make n 0 in
    mul_by_xai_into out a p;
    out
  end

let mul_by_xai_minus_one_into dst a p =
  let n = Array.length p in
  check_rotation "Poly.mul_by_xai_minus_one_into" a n;
  if Array.length dst <> n then invalid_arg "Poly.mul_by_xai_minus_one_into: size mismatch";
  if dst == p then invalid_arg "Poly.mul_by_xai_minus_one_into: dst must not alias p";
  (* dst_t = (X^a·p)_t − p_t, fused so the rotation needs no staging copy. *)
  if a = 0 then Array.fill dst 0 n 0
  else if a < n then begin
    for j = 0 to n - 1 - a do
      let t = j + a in
      Array.unsafe_set dst t (Torus.sub (Array.unsafe_get p j) (Array.unsafe_get p t))
    done;
    for j = n - a to n - 1 do
      let t = j + a - n in
      Array.unsafe_set dst t (Torus.sub (Torus.neg (Array.unsafe_get p j)) (Array.unsafe_get p t))
    done
  end
  else begin
    let a' = a - n in
    for j = 0 to n - 1 - a' do
      let t = j + a' in
      Array.unsafe_set dst t (Torus.sub (Torus.neg (Array.unsafe_get p j)) (Array.unsafe_get p t))
    done;
    for j = n - a' to n - 1 do
      let t = j + a' - n in
      Array.unsafe_set dst t (Torus.sub (Array.unsafe_get p j) (Array.unsafe_get p t))
    done
  end

let mul_by_xai_minus_one a p =
  let out = Array.make (Array.length p) 0 in
  mul_by_xai_minus_one_into out a p;
  out

let to_floats_into ~centred dst p =
  let n = Array.length p in
  if Array.length dst <> n then invalid_arg "Poly.to_floats_into: size mismatch";
  if centred then
    for i = 0 to n - 1 do
      Array.unsafe_set dst i (float_of_int (Torus.to_signed (Array.unsafe_get p i)))
    done
  else
    for i = 0 to n - 1 do
      Array.unsafe_set dst i (float_of_int (Array.unsafe_get p i))
    done

let to_floats ~centred p =
  let dst = Array.make (Array.length p) 0.0 in
  to_floats_into ~centred dst p;
  dst

(* Inlined into the conversion loop below: as a plain call the float
   argument (and the Int64 intermediates) would be boxed on every
   coefficient. *)
let[@inline] torus_of_float x =
  let r = Float.rem (Float.round x) 4294967296.0 in
  Torus.of_signed (Int64.to_int (Int64.of_float r))

let of_floats_into dst f =
  let n = Array.length f in
  if Array.length dst <> n then invalid_arg "Poly.of_floats_into: size mismatch";
  for i = 0 to n - 1 do
    Array.unsafe_set dst i (torus_of_float (Array.unsafe_get f i))
  done

let of_floats f =
  let dst = Array.make (Array.length f) 0 in
  of_floats_into dst f;
  dst

let mul_int_torus ip tp =
  let a = to_floats ~centred:false ip in
  let b = to_floats ~centred:true tp in
  of_floats (Negacyclic.polymul a b)

let mul_int_torus_naive ip tp =
  let n = Array.length ip in
  let out = Array.make n 0 in
  for i = 0 to n - 1 do
    if ip.(i) <> 0 then
      for j = 0 to n - 1 do
        let k = i + j in
        let term = Torus.mul_int ip.(i) tp.(j) in
        if k < n then out.(k) <- Torus.add out.(k) term
        else out.(k - n) <- Torus.sub out.(k - n) term
      done
  done;
  out
