module Rng = Pytfhe_util.Rng

type key = {
  ks_t : int;
  base_bit : int;
  out_n : int;
  in_n : int;
  flat : int array;
      (* One contiguous buffer replacing the old in_n × t × base array of
         LWE records: entry (i, j, u) occupies the (out_n + 1)-slot stride at
         ((i·t + j)·base + u)·(out_n+1) — out_n mask coefficients, then the
         body.  The accumulation loop therefore streams one flat array
         instead of chasing three levels of pointers. *)
}

let stride key = key.out_n + 1

let entry_off key i j u = (((i * key.ks_t) + j) * (1 lsl key.base_bit) + u) * stride key

let key_gen rng (p : Params.t) ~in_key ~out_key =
  let ks_t = p.ks.t in
  let base_bit = p.ks.base_bit in
  let base = 1 lsl base_bit in
  let in_n = in_key.Lwe.key_n in
  let out_n = out_key.Lwe.key_n in
  let stdev = p.lwe.lwe_stdev in
  let key = { ks_t; base_bit; out_n; in_n; flat = Array.make (in_n * ks_t * base * (out_n + 1)) 0 } in
  for i = 0 to in_n - 1 do
    for j = 0 to ks_t - 1 do
      for u = 0 to base - 1 do
        (* Encryption of u · s_in[i] / 2^{(j+1)·base_bit}.  The u = 0 entries
           are never read by [apply] (zero digits are skipped) but are
           generated anyway so the RNG stream and the wire format match the
           previous nested layout exactly. *)
        let message =
          Torus.mul_int (u * in_key.Lwe.bits.(i))
            (1 lsl (32 - ((j + 1) * base_bit)) land 0xFFFFFFFF)
        in
        let e = Lwe.encrypt rng out_key ~stdev message in
        let off = entry_off key i j u in
        Array.blit e.Lwe.a 0 key.flat off out_n;
        key.flat.(off + out_n) <- e.Lwe.b
      done
    done
  done;
  key

(* Batched key switch by loop interchange: the (i, j) digit blocks of the
   flat table are the outer loops and the batch rows the inner one, so each
   base × (out_n+1) block is streamed from memory once per batch instead of
   once per row.  Sources and destinations are rows of flat [Lwe_array]s,
   so while a block stays resident the batch sweep touches contiguous rows
   and each row update is a unit-stride run over the destination masks.
   Per row the (i, j) visit order, and so the exact sequence of torus
   subtractions, does not depend on the other rows, so a one-row launch
   ([apply]) yields the same bits as the same row in a full one.  Returns
   the number of (i, j) blocks read (those with at least one nonzero digit
   in the batch), for key-traffic accounting. *)
let apply_batch_rows_into key ~(src : Lwe_array.t) ~(dst : Lwe_array.t) =
  let count = Lwe_array.length src in
  if Lwe_array.dim src <> key.in_n then
    invalid_arg "Keyswitch.apply_batch_rows_into: input dimension mismatch";
  if Lwe_array.dim dst <> key.out_n then
    invalid_arg "Keyswitch.apply_batch_rows_into: output dimension mismatch";
  if Lwe_array.length dst < count then
    invalid_arg "Keyswitch.apply_batch_rows_into: destination shorter than the batch";
  let base = 1 lsl key.base_bit in
  let prec_offset = 1 lsl (32 - 1 - (key.base_bit * key.ks_t)) in
  let out_n = key.out_n in
  let in_n = key.in_n in
  let flat = key.flat in
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
  for m = 0 to count - 1 do
    let dm = m * out_n in
    for u = 0 to out_n - 1 do
      st dmasks (dm + u) (Array.unsafe_get a (dm + u))
    done;
    st dbodies m (Array.unsafe_get b m)
  done;
  !blocks

let apply key (s : Lwe.sample) =
  if Array.length s.a <> key.in_n then invalid_arg "Keyswitch.apply: input dimension mismatch";
  let dst = Lwe_array.create ~n:key.out_n 1 in
  ignore (apply_batch_rows_into key ~src:(Lwe_array.of_samples ~n:key.in_n [| s |]) ~dst);
  Lwe_array.get dst 0

let dims key = (key.in_n, key.out_n)

let block_bytes key = (1 lsl key.base_bit) * (key.out_n + 1) * 4

let table_bytes (p : Params.t) =
  Params.extracted_n p * p.ks.t * (1 lsl p.ks.base_bit) * 4 * (p.lwe.n + 1)

module Wire = Pytfhe_util.Wire

(* The wire format is the pre-flattening one — nested arrays of LWE
   samples — so serialized keys stay compatible across the layout change. *)

let entry_sample key i j u =
  let off = entry_off key i j u in
  { Lwe.a = Array.sub key.flat off key.out_n; b = key.flat.(off + key.out_n) }

let write buf k =
  Wire.write_magic buf "KSWK";
  Wire.write_i64 buf k.ks_t;
  Wire.write_i64 buf k.base_bit;
  Wire.write_i64 buf k.out_n;
  Wire.write_i64 buf k.in_n;
  let base = 1 lsl k.base_bit in
  Wire.write_array buf
    (fun buf i ->
      Wire.write_array buf
        (fun buf j ->
          Wire.write_array buf (fun buf u -> Lwe.write_sample buf (entry_sample k i j u))
            (Array.init base Fun.id))
        (Array.init k.ks_t Fun.id))
    (Array.init k.in_n Fun.id)

let read r =
  Wire.read_magic r "KSWK";
  let ks_t = Wire.read_i64 r in
  let base_bit = Wire.read_i64 r in
  let out_n = Wire.read_i64 r in
  let in_n = Wire.read_i64 r in
  if ks_t <= 0 || base_bit <= 0 || ks_t * base_bit > 31 then
    raise (Wire.Corrupt "key-switch decomposition parameters out of range");
  if out_n <= 0 || in_n <= 0 then raise (Wire.Corrupt "key-switch dimensions out of range");
  let base = 1 lsl base_bit in
  (* Bound the declared table by the bytes actually sent before allocating
     it: in_n·t·base entries of at least 16 + 4·out_n wire bytes each
     (magic, length prefix, out_n mask words, body).  Dividing the budget
     down factor by factor never overflows. *)
  let sent = Wire.remaining r in
  if out_n > sent
     || List.fold_left ( / ) (sent / (16 + (4 * out_n))) [ in_n; ks_t; base ] < 1
  then raise (Wire.Corrupt "key-switch table larger than the payload");
  let key = { ks_t; base_bit; out_n; in_n; flat = Array.make (in_n * ks_t * base * (out_n + 1)) 0 } in
  let table =
    Wire.read_array r (fun r -> Wire.read_array r (fun r -> Wire.read_array r Lwe.read_sample))
  in
  if Array.length table <> in_n then raise (Wire.Corrupt "key-switch table size mismatch");
  Array.iteri
    (fun i row ->
      if Array.length row <> ks_t then raise (Wire.Corrupt "key-switch digit count mismatch");
      Array.iteri
        (fun j col ->
          if Array.length col <> base then raise (Wire.Corrupt "key-switch base count mismatch");
          Array.iteri
            (fun u (e : Lwe.sample) ->
              if Array.length e.Lwe.a <> out_n then
                raise (Wire.Corrupt "key-switch entry dimension mismatch");
              let off = entry_off key i j u in
              Array.blit e.Lwe.a 0 key.flat off out_n;
              key.flat.(off + out_n) <- e.Lwe.b)
            col)
        row)
    table;
  key
