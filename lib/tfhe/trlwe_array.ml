module Wire = Pytfhe_util.Wire

(* Struct-of-arrays TRLWE accumulator storage for the batched blind
   rotation: [cap] accumulators as one flat torus-word array, row r holding
   its k mask polynomials then its body polynomial back to back (each
   ring_n coefficients).  The batched CMux recurrence keeps one
   bootstrapping-key entry resident while sweeping the batch dimension, so
   the accumulators it touches must be contiguous — this is the TRLWE
   analogue of {!Lwe_array}.

   Unlike {!Lwe_array} the accumulators never cross the wire, so the flat
   storage is a plain [int array] of torus words rather than an int32
   Bigarray: an int32 bigarray element access costs roughly two int-array
   accesses even when it compiles to a raw load (tag/convert ops on every
   read-modify-write), and the rotation loops are memory bound.

   The rotations are [Poly.mul_by_xai_into] / [mul_by_xai_minus_one_into]
   and the extraction is [Tlwe.extract_lwe_at], coefficient for
   coefficient, against the flat row; the tests pin them to those
   references.  The landing ([add_floats_to] / [add_ints_to]) is the
   blind rotation's only float→torus and integer→torus step. *)

type t = { k : int; ring_n : int; cap : int; data : int array }

let create (p : Params.t) ~cap =
  if cap < 1 then invalid_arg "Trlwe_array.create: cap must be >= 1";
  let k = p.tlwe.k and ring_n = p.tlwe.ring_n in
  { k; ring_n; cap; data = Array.make (cap * (k + 1) * ring_n) 0 }

let capacity t = t.cap

let[@inline] comp_off t r c = ((r * (t.k + 1)) + c) * t.ring_n
let[@inline] body_off t r = comp_off t r t.k

let[@inline] check_row t r who =
  if r < 0 || r >= t.cap then invalid_arg (who ^ ": row out of bounds")

let clear_masks t r =
  check_row t r "Trlwe_array.clear_masks";
  Array.fill t.data (comp_off t r 0) (t.k * t.ring_n) 0

(* Round one FFT output coefficient into a canonical torus element
   (modulo 2^32).  Inlined into [add_floats_to]: as a plain call the float
   argument and Int64 intermediates would be boxed on every coefficient,
   which costs megabytes per bootstrap. *)
let[@inline] torus_of_float x =
  let r = Float.rem (Float.round x) 4294967296.0 in
  Torus.of_signed (Int64.to_int (Int64.of_float r))

(* body(r) ← X^a · p: the three-branch negacyclic rotation of
   [Poly.mul_by_xai_into], writing into the flat row. *)
let rotate_body_from t r a (p : Poly.torus_poly) =
  check_row t r "Trlwe_array.rotate_body_from";
  let n = t.ring_n in
  if Array.length p <> n then invalid_arg "Trlwe_array.rotate_body_from: size mismatch";
  if a < 0 || a >= 2 * n then
    invalid_arg "Trlwe_array.rotate_body_from: exponent out of [0, 2N)";
  let d = t.data in
  let off = body_off t r in
  if a = 0 then Array.blit p 0 d off n
  else if a < n then begin
    for j = 0 to n - 1 - a do
      Array.unsafe_set d (off + j + a) (Array.unsafe_get p j)
    done;
    for j = n - a to n - 1 do
      Array.unsafe_set d (off + j + a - n) (Torus.neg (Array.unsafe_get p j))
    done
  end
  else begin
    let a' = a - n in
    for j = 0 to n - 1 - a' do
      Array.unsafe_set d (off + j + a') (Torus.neg (Array.unsafe_get p j))
    done;
    for j = n - a' to n - 1 do
      Array.unsafe_set d (off + j + a' - n) (Array.unsafe_get p j)
    done
  end

(* dst ← (X^a − 1) · row: the fused rotation difference of
   [Poly.mul_by_xai_minus_one_into] applied to every component of row [r],
   landing in the record-shaped workspace scratch the external product
   consumes. *)
let rotate_diff_into t ~row a (dst : Tlwe.sample) =
  check_row t row "Trlwe_array.rotate_diff_into";
  let n = t.ring_n in
  if a < 0 || a >= 2 * n then
    invalid_arg "Trlwe_array.rotate_diff_into: exponent out of [0, 2N)";
  let src = t.data in
  for c = 0 to t.k do
    let d = if c < t.k then dst.Tlwe.mask.(c) else dst.Tlwe.body in
    if Array.length d <> n then invalid_arg "Trlwe_array.rotate_diff_into: size mismatch";
    let off = comp_off t row c in
    if a = 0 then Array.fill d 0 n 0
    else if a < n then begin
      for j = 0 to n - 1 - a do
        let tgt = j + a in
        Array.unsafe_set d tgt
          (Torus.sub (Array.unsafe_get src (off + j)) (Array.unsafe_get src (off + tgt)))
      done;
      for j = n - a to n - 1 do
        let tgt = j + a - n in
        Array.unsafe_set d tgt
          (Torus.sub (Torus.neg (Array.unsafe_get src (off + j))) (Array.unsafe_get src (off + tgt)))
      done
    end
    else begin
      let a' = a - n in
      for j = 0 to n - 1 - a' do
        let tgt = j + a' in
        Array.unsafe_set d tgt
          (Torus.sub (Torus.neg (Array.unsafe_get src (off + j))) (Array.unsafe_get src (off + tgt)))
      done;
      for j = n - a' to n - 1 do
        let tgt = j + a' - n in
        Array.unsafe_set d tgt
          (Torus.sub (Array.unsafe_get src (off + j)) (Array.unsafe_get src (off + tgt)))
      done
    end
  done

(* component(row, comp) += round(f): the FFT-path landing of one external
   product component. *)
let add_floats_to t ~row ~comp (f : float array) =
  check_row t row "Trlwe_array.add_floats_to";
  if comp < 0 || comp > t.k then invalid_arg "Trlwe_array.add_floats_to: component out of range";
  if Array.length f <> t.ring_n then invalid_arg "Trlwe_array.add_floats_to: size mismatch";
  let d = t.data in
  let off = comp_off t row comp in
  for i = 0 to t.ring_n - 1 do
    Array.unsafe_set d (off + i)
      (Torus.add (Array.unsafe_get d (off + i)) (torus_of_float (Array.unsafe_get f i)))
  done

(* component(row, comp) += v mod 2^32: the NTT-path counterpart of
   [add_floats_to] — coefficients arrive as exact signed integers, so the
   reduction is a plain mask with no rounding. *)
let add_ints_to t ~row ~comp (v : int array) =
  check_row t row "Trlwe_array.add_ints_to";
  if comp < 0 || comp > t.k then invalid_arg "Trlwe_array.add_ints_to: component out of range";
  if Array.length v <> t.ring_n then invalid_arg "Trlwe_array.add_ints_to: size mismatch";
  let d = t.data in
  let off = comp_off t row comp in
  for i = 0 to t.ring_n - 1 do
    Array.unsafe_set d (off + i)
      (Torus.add (Array.unsafe_get d (off + i)) (Torus.of_signed (Array.unsafe_get v i)))
  done

(* The extraction destination IS an int32 Bigarray ({!Lwe_array} is the
   wire format).  Spelled as direct annotated primitive applications so the
   stores compile to raw writes — a cross-module call to
   [Lwe_array.unsafe_set32] is never inlined by this compiler, and the
   parameter annotation is what lets the typer pick the int32-specialized
   primitive instead of the generic boxing one. *)
let[@inline] set32 (ba : Wire.i32_buffer) i v = Bigarray.Array1.unsafe_set ba i (Int32.of_int v)

(* Sample extraction at coefficient [pos], [Tlwe.extract_lwe_at] row for
   row: mask coefficient (c·N + j) is poly_c(pos − j) for j ≤ pos and
   −poly_c(N + pos − j) above; the body is the body polynomial's
   coefficient [pos]. *)
let extract_row_into t ~row ~pos (dst : Lwe_array.t) ~drow =
  check_row t row "Trlwe_array.extract_row_into";
  if pos < 0 || pos >= t.ring_n then
    invalid_arg "Trlwe_array.extract_row_into: position out of range";
  if dst.Lwe_array.n <> t.k * t.ring_n then
    invalid_arg "Trlwe_array.extract_row_into: destination dimension mismatch";
  if drow < 0 || drow >= dst.Lwe_array.len then
    invalid_arg "Trlwe_array.extract_row_into: destination row out of bounds";
  let n = t.ring_n in
  let src = t.data in
  let doff = drow * dst.Lwe_array.n in
  for c = 0 to t.k - 1 do
    let poff = comp_off t row c and moff = doff + (c * n) in
    for j = 0 to pos do
      set32 dst.Lwe_array.masks (moff + j) (Array.unsafe_get src (poff + pos - j))
    done;
    for j = pos + 1 to n - 1 do
      set32 dst.Lwe_array.masks (moff + j) (Torus.neg (Array.unsafe_get src (poff + n + pos - j)))
    done
  done;
  set32 dst.Lwe_array.bodies drow (Array.unsafe_get src (body_off t row + pos))
