(* Exact negacyclic convolution over ℤ[X]/(Xᴺ + 1) via a double-prime
   number-theoretic transform.

   The coefficient arithmetic TFHE needs is integer products of
   gadget-decomposition digits (|d| ≤ Bg/2) with centred torus words
   (|t| < 2³¹), accumulated over (k+1)·l rows — magnitudes up to about
   rows·N·(Bg/2)·2³¹ ≈ 2⁵⁰ for the default-128 set.  OCaml's native int is
   63-bit, so instead of one 64-bit prime (whose butterflies would need
   Int64 or 128-bit multiply-high tricks) we run the transform twice over
   two ~30-bit NTT-friendly primes and recombine by CRT:

     p1 = 998244353  = 119·2²³ + 1   (primitive root 3)
     p2 = 1004535809 = 479·2²¹ + 1   (primitive root 3)

   Every product in the transform loops is < 2⁶² and every CRT
   intermediate is < p1·p2 ≈ 2⁵⁹·⁸, so all arithmetic stays in native ints
   with no boxing.  The combined modulus M = p1·p2 leaves > 2⁸ headroom over
   the worst-case product magnitude above, making the negacyclic product —
   and therefore the whole blind rotation — exact, bit-identical across
   machines.

   The transform loops have no data-dependent branch and no division.
   Without flambda, ocamlopt compiles [if x >= p then x - p else x] to a
   jump that mispredicts on ciphertext data, and [a * w mod p] to an
   [idivq] whenever [p] is not a literal.  So every multiplication by a
   table constant w goes through its Shoup companion w' = ⌊w·2³¹/p⌋
   (stored beside w): for x < 2³¹, [x*w - ((x*w') lsr 31) * p] lies in
   [0, 2p), and one sign-mask correction [r + ((r asr 62) land p)] makes
   it canonical.  The only [mod]s left divide by the literal primes, which
   ocamlopt turns into a multiply-high.

   Shape mirrors {!Negacyclic}: a 2N-th root ψ twists the input (fused into
   the bit-reversal scatter), an N-point cyclic NTT evaluates it, and the
   inverse untwists by N⁻¹·ψ⁻ʲ.  The inverse runs decimation-in-frequency
   from the natural-order spectrum, so it needs no permutation pass: the
   CRT lift gathers its bit-reversed output.  The table cache is the same
   lock-free snapshot/CAS scheme, with {!precompute} to fill it before
   worker domains run transforms concurrently; {!builds} counts table
   constructions so tests can assert none happen mid-flight. *)

let p1 = 998244353
let p2 = 1004535809
let modulus = p1 * p2

(* Table construction only; the transform loops never divide by [p]. *)
let[@inline] pow_mod b e p =
  let b = ref (b mod p) and e = ref e and acc = ref 1 in
  while !e > 0 do
    if !e land 1 = 1 then acc := !acc * !b mod p;
    b := !b * !b mod p;
    e := !e asr 1
  done;
  !acc

(* Constants w ∈ [0, p) with their Shoup companions ⌊w·2³¹/p⌋ < 2³¹. *)
type consts = { w : int array; w' : int array }

let consts p w = { w; w' = Array.map (fun w -> (w lsl 31) / p) w }

(* r ∈ [−p, p) to [0, p): the sign mask adds p exactly when r < 0. *)
let[@inline] canon r p = r + ((r asr 62) land p)

(* x·w mod p in [0, p) for x ∈ [0, 2³¹): the quotient estimate
   (x·w') lsr 31 is exact or one short, so x·w minus it times p lies in
   [0, 2p).  x·w < 2⁶¹ and x·w' < 2⁶². *)
let[@inline] mul_shoup x w w' p = canon ((x * w) - (((x * w') lsr 31) * p) - p) p

type prime_ctx = {
  psi : consts;  (* ψʲ, fused into the forward bit-reversal scatter *)
  inv_psi_n : consts;  (* N⁻¹·ψ⁻ʲ, fused into the CRT lift *)
  w_fwd : consts;  (* stage-major twiddles: slot half+j holds ω_len^j *)
  w_inv : consts;
}

type tables = { t_n : int; rev : int array; c1 : prime_ctx; c2 : prime_ctx }

let make_prime_ctx p n =
  (* g = 3 is a primitive root of both primes. *)
  let psi_root = pow_mod 3 ((p - 1) / (2 * n)) p in
  let w = psi_root * psi_root mod p in
  let inv_psi = pow_mod psi_root (p - 2) p in
  let n_inv = pow_mod n (p - 2) p in
  let psi = Array.make n 1 and inv_psi_n = Array.make n n_inv in
  for j = 1 to n - 1 do
    psi.(j) <- psi.(j - 1) * psi_root mod p;
    inv_psi_n.(j) <- inv_psi_n.(j - 1) * inv_psi mod p
  done;
  let fill root =
    let tw = Array.make n 0 in
    let half = ref 1 in
    while !half < n do
      let w_len = pow_mod root (n / (2 * !half)) p in
      tw.(!half) <- 1;
      for j = 1 to !half - 1 do
        tw.(!half + j) <- tw.(!half + j - 1) * w_len mod p
      done;
      half := !half * 2
    done;
    consts p tw
  in
  {
    psi = consts p psi;
    inv_psi_n = consts p inv_psi_n;
    w_fwd = fill w;
    w_inv = fill (pow_mod w (p - 2) p);
  }

let make_tables n =
  let rev = Array.make n 0 in
  let bits =
    let b = ref 0 and v = ref n in
    while !v > 1 do
      incr b;
      v := !v lsr 1
    done;
    !b
  in
  for i = 0 to n - 1 do
    let r = ref 0 in
    for b = 0 to bits - 1 do
      if i land (1 lsl b) <> 0 then r := !r lor (1 lsl (bits - 1 - b))
    done;
    rev.(i) <- !r
  done;
  { t_n = n; rev; c1 = make_prime_ctx p1 n; c2 = make_prime_ctx p2 n }

(* Lock-free table cache: worker domains read an immutable snapshot list,
   so the lazily-filled-Hashtbl race of a naive cache cannot happen.  The
   build counter is bumped on every table construction — a precomputed
   steady state must keep it flat. *)
let cache : (int * tables) list Atomic.t = Atomic.make []
let builds_counter = Atomic.make 0

let rec assoc_size n = function
  | [] -> None
  | (m, t) :: rest -> if m = n then Some t else assoc_size n rest

let check_degree who n =
  if n < 2 || n land (n - 1) <> 0 then invalid_arg who;
  (* 2N must divide p−1 for both primes; p2 = 479·2²¹ + 1 is the binding
     one, so the largest supported ring degree is 2²⁰. *)
  if 2 * n > 1 lsl 21 then invalid_arg (who ^ ": ring degree exceeds the NTT prime 2-adicity")

let rec tables n =
  let snapshot = Atomic.get cache in
  match assoc_size n snapshot with
  | Some t -> t
  | None ->
    check_degree "Ntt.tables" n;
    Atomic.incr builds_counter;
    let t = make_tables n in
    if Atomic.compare_and_set cache snapshot ((n, t) :: snapshot) then t else tables n

let precompute n =
  check_degree "Ntt.precompute" n;
  ignore (tables n)

let tables_ready n = assoc_size n (Atomic.get cache) <> None
let builds () = Atomic.get builds_counter

type spectrum = { v1 : int array; v2 : int array }

let spectrum_create n =
  check_degree "Ntt.spectrum_create" n;
  { v1 = Array.make n 0; v2 = Array.make n 0 }

let spectrum_copy s = { v1 = Array.copy s.v1; v2 = Array.copy s.v2 }

let spectrum_zero s =
  Array.fill s.v1 0 (Array.length s.v1) 0;
  Array.fill s.v2 0 (Array.length s.v2) 0

(* One decimation-in-time butterfly on residues in [0, p). *)
let[@inline] butterfly a k half w w' p =
  let u = Array.unsafe_get a k in
  let v = mul_shoup (Array.unsafe_get a (k + half)) w w' p in
  Array.unsafe_set a k (canon (u + v - p) p);
  Array.unsafe_set a (k + half) (canon (u - v) p)

(* One decimation-in-frequency butterfly on residues in [0, p):
   u − v + p < 2p < 2³¹ goes into the Shoup product uncorrected. *)
let[@inline] butterfly_dif a k half w w' p =
  let u = Array.unsafe_get a k and v = Array.unsafe_get a (k + half) in
  Array.unsafe_set a k (canon (u + v - p) p);
  Array.unsafe_set a (k + half) (mul_shoup (u - v + p) w w' p)

(* In-place cyclic NTT of both residue channels: decimation in time from
   bit-reversed to natural order, or in frequency from natural to
   bit-reversed order.  One loop nest serves both channels, so the primes
   are literals, and it runs twiddle-major so each twiddle stays in a
   register across the blocks of a stage. *)
let butterflies s (t1 : consts) (t2 : consts) n =
  let a1 = s.v1 and a2 = s.v2 in
  let len = ref 2 in
  while !len <= n do
    let half = !len asr 1 and step = !len in
    for j = 0 to half - 1 do
      let w1 = Array.unsafe_get t1.w (half + j) and w1' = Array.unsafe_get t1.w' (half + j) in
      let w2 = Array.unsafe_get t2.w (half + j) and w2' = Array.unsafe_get t2.w' (half + j) in
      let i = ref j in
      while !i < n do
        butterfly a1 !i half w1 w1' p1;
        butterfly a2 !i half w2 w2' p2;
        i := !i + step
      done
    done;
    len := step lsl 1
  done

let butterflies_dif s (t1 : consts) (t2 : consts) n =
  let a1 = s.v1 and a2 = s.v2 in
  let len = ref n in
  while !len >= 2 do
    let half = !len asr 1 and step = !len in
    for j = 0 to half - 1 do
      let w1 = Array.unsafe_get t1.w (half + j) and w1' = Array.unsafe_get t1.w' (half + j) in
      let w2 = Array.unsafe_get t2.w (half + j) and w2' = Array.unsafe_get t2.w' (half + j) in
      let i = ref j in
      while !i < n do
        butterfly_dif a1 !i half w1 w1' p1;
        butterfly_dif a2 !i half w2 w2' p2;
        i := !i + step
      done
    done;
    len := half
  done

let forward_into s (xs : int array) =
  let n = Array.length xs in
  if Array.length s.v1 <> n then invalid_arg "Ntt.forward_into: size mismatch";
  let t = tables n in
  let rev = t.rev and psi1 = t.c1.psi and psi2 = t.c2.psi in
  (* Both primes in one pass, so each [mod] divides by a literal. *)
  for j = 0 to n - 1 do
    let x = Array.unsafe_get xs j and r = Array.unsafe_get rev j in
    Array.unsafe_set s.v1 r
      (mul_shoup (canon (x mod p1) p1) (Array.unsafe_get psi1.w j) (Array.unsafe_get psi1.w' j) p1);
    Array.unsafe_set s.v2 r
      (mul_shoup (canon (x mod p2) p2) (Array.unsafe_get psi2.w j) (Array.unsafe_get psi2.w' j) p2)
  done;
  butterflies s t.c1.w_fwd t.c2.w_fwd n

let forward xs =
  let s = spectrum_create (Array.length xs) in
  forward_into s xs;
  s

(* Centred CRT lift: x ≡ c1 (mod p1), x ≡ c2 (mod p2), |x| ≤ M/2. *)
let inv_p1_mod_p2 = pow_mod (p1 mod p2) (p2 - 2) p2
let inv_p1_mod_p2' = (inv_p1_mod_p2 lsl 31) / p2

let backward_into (out : int array) s =
  let n = Array.length out in
  if Array.length s.v1 <> n then invalid_arg "Ntt.backward_into: size mismatch";
  let t = tables n in
  let rev = t.rev and a1 = s.v1 and a2 = s.v2 in
  (* In place, so the spectrum arrays become scratch — the documented
     destructive contract, shared with [Negacyclic.backward_into].  The
     result comes out in bit-reversed order; the lift gathers it. *)
  butterflies_dif s t.c1.w_inv t.c2.w_inv n;
  let u1 = t.c1.inv_psi_n and u2 = t.c2.inv_psi_n in
  for j = 0 to n - 1 do
    let r = Array.unsafe_get rev j in
    let c1 =
      mul_shoup (Array.unsafe_get a1 r) (Array.unsafe_get u1.w j) (Array.unsafe_get u1.w' j) p1
    in
    let c2 =
      mul_shoup (Array.unsafe_get a2 r) (Array.unsafe_get u2.w j) (Array.unsafe_get u2.w' j) p2
    in
    (* c1 < p1 < p2, so c2 − c1 ∈ [−p2, p2). *)
    let d = canon (c2 - c1) p2 in
    let x = c1 + (p1 * mul_shoup d inv_p1_mod_p2 inv_p1_mod_p2' p2) in
    Array.unsafe_set out j (x - (((modulus - (2 * x)) asr 62) land modulus))
  done

let backward s =
  let out = Array.make (Array.length s.v1) 0 in
  backward_into out (spectrum_copy s);
  out

let mul_add_into acc a b =
  let n = Array.length acc.v1 in
  for j = 0 to n - 1 do
    Array.unsafe_set acc.v1 j
      ((Array.unsafe_get acc.v1 j
       + (Array.unsafe_get a.v1 j * Array.unsafe_get b.v1 j))
      mod p1);
    Array.unsafe_set acc.v2 j
      ((Array.unsafe_get acc.v2 j
       + (Array.unsafe_get a.v2 j * Array.unsafe_get b.v2 j))
      mod p2)
  done

let polymul a b =
  let n = Array.length a in
  if Array.length b <> n then invalid_arg "Ntt.polymul: size mismatch";
  let sa = forward a and sb = forward b in
  let acc = spectrum_create n in
  mul_add_into acc sa sb;
  let out = Array.make n 0 in
  backward_into out acc;
  out

let polymul_naive a b =
  let n = Array.length a in
  if Array.length b <> n then invalid_arg "Ntt.polymul_naive: size mismatch";
  let c = Array.make n 0 in
  for i = 0 to n - 1 do
    let ai = a.(i) in
    if ai <> 0 then
      for j = 0 to n - 1 do
        let k = i + j in
        if k < n then c.(k) <- c.(k) + (ai * b.(j)) else c.(k - n) <- c.(k - n) - (ai * b.(j))
      done
  done;
  c
