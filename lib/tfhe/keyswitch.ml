module Rng = Pytfhe_util.Rng

type key = {
  ks_t : int;
  base_bit : int;
  out_n : int;
  in_n : int;
  flat : int array;
      (* One contiguous buffer of the entries [apply] reads: entry (i, j, u)
         for u = 1 … base−1 occupies the (out_n + 1)-slot stride at
         ((i·t + j)·(base−1) + u − 1)·(out_n+1) — out_n mask coefficients,
         then the body.  A zero digit subtracts nothing, so u = 0 has no
         entry.  The accumulation loop streams one flat array instead of
         chasing pointers. *)
}

let stride key = key.out_n + 1

let entry_off key i j u =
  ((((i * key.ks_t) + j) * ((1 lsl key.base_bit) - 1)) + u - 1) * stride key

let create (p : Params.t) ~in_n ~out_n =
  let ks_t = p.ks.t and base_bit = p.ks.base_bit in
  { ks_t; base_bit; out_n; in_n; flat = Array.make (in_n * ks_t * ((1 lsl base_bit) - 1) * (out_n + 1)) 0 }

let key_gen rng (p : Params.t) ~in_key ~out_key =
  let key = create p ~in_n:in_key.Lwe.key_n ~out_n:out_key.Lwe.key_n in
  for i = 0 to key.in_n - 1 do
    for j = 0 to key.ks_t - 1 do
      for u = 1 to (1 lsl key.base_bit) - 1 do
        (* Encryption of u · s_in[i] / 2^{(j+1)·base_bit}. *)
        let message =
          Torus.mul_int (u * in_key.Lwe.bits.(i))
            (1 lsl (32 - ((j + 1) * key.base_bit)) land 0xFFFFFFFF)
        in
        let e = Lwe.encrypt rng out_key ~stdev:p.lwe.lwe_stdev message in
        let off = entry_off key i j u in
        Array.blit e.Lwe.a 0 key.flat off key.out_n;
        key.flat.(off + key.out_n) <- e.Lwe.b
      done
    done
  done;
  key

(* The key switch by loop interchange, over staged int rows: [sa] holds
   [count] source masks of in_n words, [a] the output masks (out_n words
   each, zero on entry) and [b] the bodies (the source bodies on entry).
   The (i, j) digit blocks of the flat table are the outer loops and the
   rows the inner one, so each (base−1) × (out_n+1) block is streamed from
   memory once per batch and each row update is a unit-stride run.  Per
   row the (i, j) visit order, and so the exact sequence of torus
   subtractions, does not depend on the other rows, so a one-row call
   yields the same bits as the same row in a full batch.  Inlined into
   both entry points: as a call, the memory-bound loop runs measurably
   slower.  Returns the number of (i, j) blocks read (those with at least
   one nonzero digit in the batch), for key-traffic accounting. *)
let[@inline always] digit_rows key ~count (sa : int array) (a : int array) (b : int array) =
  let base = 1 lsl key.base_bit in
  let prec_offset = 1 lsl (32 - 1 - (key.base_bit * key.ks_t)) in
  let out_n = key.out_n and in_n = key.in_n and flat = key.flat in
  let blocks = ref 0 in
  for i = 0 to in_n - 1 do
    for j = 0 to key.ks_t - 1 do
      let shift = 32 - ((j + 1) * key.base_bit) in
      let touched = ref false in
      for m = 0 to count - 1 do
        let ai = (Array.unsafe_get sa ((m * in_n) + i) + prec_offset) land 0xFFFFFFFF in
        let aij = (ai lsr shift) land (base - 1) in
        if aij <> 0 then begin
          touched := true;
          let off = entry_off key i j aij in
          let dm = m * out_n in
          for u = 0 to out_n - 1 do
            Array.unsafe_set a (dm + u)
              (Torus.sub (Array.unsafe_get a (dm + u)) (Array.unsafe_get flat (off + u)))
          done;
          Array.unsafe_set b m
            (Torus.sub (Array.unsafe_get b m) (Array.unsafe_get flat (off + out_n)))
        end
      done;
      if !touched then incr blocks
    done
  done;
  !blocks

let apply_batch_rows_into key ~(src : Lwe_array.t) ~(dst : Lwe_array.t) =
  let count = Lwe_array.length src in
  if Lwe_array.dim src <> key.in_n then
    invalid_arg "Keyswitch.apply_batch_rows_into: input dimension mismatch";
  if Lwe_array.dim dst <> key.out_n then
    invalid_arg "Keyswitch.apply_batch_rows_into: output dimension mismatch";
  if Lwe_array.length dst < count then
    invalid_arg "Keyswitch.apply_batch_rows_into: destination shorter than the batch";
  let out_n = key.out_n in
  let in_n = key.in_n in
  let smasks = src.Lwe_array.masks and sbodies = src.Lwe_array.bodies in
  let dmasks = dst.Lwe_array.masks and dbodies = dst.Lwe_array.bodies in
  (* Spelled as direct [Bigarray.Array1] / [Int32] primitive applications:
     those are compiler intrinsics, so every element access compiles to a
     raw load/store even without flambda.  Going through a function (even a
     [@inline] one) leaves a call per element on this compiler, which
     roughly doubles the cost of the memory-bound digit loop. *)
  let[@inline] ld (ba : Pytfhe_util.Wire.i32_buffer) i =
    Int32.to_int (Bigarray.Array1.unsafe_get ba i) land 0xFFFFFFFF
  in
  let[@inline] st (ba : Pytfhe_util.Wire.i32_buffer) i v =
    Bigarray.Array1.unsafe_set ba i (Int32.of_int v)
  in
  (* The digit loop is memory bound, and an int32 bigarray access costs
     roughly two int-array accesses even as a raw load — so stage the
     source phases and the output accumulators in flat int arrays (one
     conversion pass per direction) and run the hot loop entirely on the
     OCaml heap.  The scratch is a few hundred words per batch member,
     noise next to the table traffic. *)
  let sa = Array.make (count * in_n) 0 in
  let a = Array.make (count * out_n) 0 in
  let b = Array.make count 0 in
  for m = 0 to count - 1 do
    let sm = m * in_n in
    for i = 0 to in_n - 1 do
      Array.unsafe_set sa (sm + i) (ld smasks (sm + i))
    done;
    b.(m) <- ld sbodies m
  done;
  let blocks = digit_rows key ~count sa a b in
  for m = 0 to count - 1 do
    let dm = m * out_n in
    for u = 0 to out_n - 1 do
      st dmasks (dm + u) (Array.unsafe_get a (dm + u))
    done;
    st dbodies m (Array.unsafe_get b m)
  done;
  blocks

(* The record's own mask is the source row and the result's arrays are the
   accumulators: nothing is staged. *)
let apply key (s : Lwe.sample) =
  if Array.length s.a <> key.in_n then invalid_arg "Keyswitch.apply: input dimension mismatch";
  let a = Array.make key.out_n 0 and b = [| s.b |] in
  ignore (digit_rows key ~count:1 s.a a b);
  { Lwe.a; b = b.(0) }

let block_bytes (p : Params.t) = ((1 lsl p.ks.base_bit) - 1) * (p.lwe.n + 1) * 4

let table_bytes (p : Params.t) = Params.extracted_n p * p.ks.t * block_bytes p

module Wire = Pytfhe_util.Wire

(* Magic, then the flat table as one u32 block: its shape is the parameter
   set's, so the reader takes nothing else from the wire. *)
let write buf k =
  Wire.write_magic buf "KSWK";
  Wire.write_u32_array buf k.flat

let read (p : Params.t) r =
  Wire.read_magic r "KSWK";
  let dims = [ p.tlwe.k; p.tlwe.ring_n; p.ks.t; (1 lsl p.ks.base_bit) - 1; p.lwe.n + 1 ] in
  ignore (Wire.read_block_length r dims);
  let key = create p ~in_n:(Params.extracted_n p) ~out_n:p.lwe.n in
  Wire.read_u32_into r key.flat;
  key
