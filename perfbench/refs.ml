(* References the outputs are checked against, none of which goes through
   the compiler: the ChiselTorch plaintext interpreters and closed forms. *)

open Pytfhe_chiseltorch

(* Element bit patterns <-> wire bits, LSB first per element. *)
let bits_of_patterns ~width patterns =
  Array.concat (Array.to_list (Array.map (fun v -> Array.init width (fun i -> (v asr i) land 1 = 1)) patterns))

let patterns_of_bits ~width bits =
  Array.init (Array.length bits / width) (fun e ->
      let v = ref 0 in
      for i = 0 to width - 1 do
        if bits.((e * width) + i) then v := !v lor (1 lsl i)
      done;
      !v)

(* The attention head of [Attention.build] over [Scalar.ref_*] at any
   fixed-point dtype: Q/K/V projections, scores Q·Kᵀ, the scaled ReLU that
   stands in for softmax, then the value aggregation. *)
let attention dtype (cfg : Attention.config) (w : Attention.weights) x =
  let s = cfg.Attention.seq_len and h = cfg.Attention.hidden in
  let sum = function
    | [] -> invalid_arg "Refs.attention: empty sum"
    | t :: rest -> List.fold_left (Scalar.ref_add dtype) t rest
  in
  let project m =
    Array.init s (fun i ->
        Array.init h (fun j -> sum (List.init h (fun k -> Scalar.ref_mul_scalar dtype x.((i * h) + k) m.(k).(j)))))
  in
  let q = project w.Attention.wq and k = project w.Attention.wk and v = project w.Attention.wv in
  let scale = 1.0 /. sqrt (float_of_int h) in
  let attn =
    Array.init s (fun i ->
        Array.init s (fun j ->
            let score = sum (List.init h (fun c -> Scalar.ref_mul dtype q.(i).(c) k.(j).(c))) in
            Scalar.ref_relu dtype (Scalar.ref_mul_scalar dtype score scale)))
  in
  Array.init (s * h) (fun flat ->
      let i = flat / h and j = flat mod h in
      sum (List.init s (fun c -> Scalar.ref_mul dtype attn.(i).(c) v.(c).(j))))

(* An XOR chain over inputs x0..xd is their parity. *)
let chain bits = [| Array.fold_left ( <> ) false bits |]

(* Three rounds of y_i <- y_i xor y_(i+1 mod w) leave x_i xor x_(i+1) xor
   x_(i+2) xor x_(i+3): every binomial coefficient of (1 + X)^3 is odd. *)
let lattice bits =
  let w = Array.length bits in
  Array.init w (fun i ->
      bits.(i) <> bits.((i + 1) mod w) <> bits.((i + 2) mod w) <> bits.((i + 3) mod w))
