(* Programmable bootstrapping (paper §II-B): TFHE's bootstrap can apply an
   arbitrary lookup table while refreshing noise — the primitive behind
   "bit-wise schemes are flexible enough for non-linear operations" and the
   reason word-wise schemes struggle with ReLU/argmax (paper §II-C).

     dune exec examples/lut_demo.exe

   A client encrypts a 3-bit message; the server applies a chain of
   table lookups (square, then a ReLU-like threshold) — each one a single
   bootstrapping — without learning anything about the value.  Exits
   non-zero if any lookup decrypts wrong. *)

open Pytfhe_tfhe
module Rng = Pytfhe_util.Rng

let () =
  let params = Params.test in
  let msize = 8 in
  Format.printf "= Programmable bootstrapping / LUT demo (messages mod %d) =@." msize;
  let rng = Rng.create ~seed:2024 () in
  let sk, ck = Gates.key_gen rng params in
  let square = Array.init msize (fun v -> v * v mod msize) in
  let thresh = Array.init msize (fun v -> if v >= 4 then v - 4 else 0) in
  Format.printf "%6s %10s %16s %26s@." "v" "enc(v)" "LUT: v^2 mod 8" "then max(v-4, 0)";
  let wrong = ref 0 in
  for v = 0 to msize - 1 do
    let c = Gates.encrypt_message rng sk ~msize v in
    let c2 = Gates.apply_lut ck ~msize ~table:square c in
    let c3 = Gates.apply_lut ck ~msize ~table:thresh c2 in
    let d2 = Gates.decrypt_message sk ~msize c2 in
    let d3 = Gates.decrypt_message sk ~msize c3 in
    let expected2 = v * v mod msize in
    let expected3 = max (expected2 - 4) 0 in
    if d2 <> expected2 || d3 <> expected3 then incr wrong;
    Format.printf "%6d %10s %13d %s %23d %s@." v "ok" d2
      (if d2 = expected2 then "(=)" else "(!)")
      d3
      (if d3 = expected3 then "(=)" else "(!)")
  done;
  Format.printf
    "@.each lookup is one bootstrapping: noise is refreshed at every step, so@.";
  Format.printf "chains of arbitrary non-linear tables compose indefinitely.@.";
  if !wrong > 0 then begin
    Format.printf "%d of %d lookups decrypted wrong (!)@." !wrong msize;
    exit 1
  end
