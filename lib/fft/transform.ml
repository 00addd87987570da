(* The dispatch layer between parameter sets and the two polynomial
   transform backends.  Everything above Tgsw selects a transform through a
   [kind] carried in the parameter set; the evaluation-domain values are the
   [domain] sum so TGSW keys and workspaces stay transform-generic with
   one constructor match at the point of use. *)

type kind = Fft | Ntt

type domain = Dfft of Negacyclic.spectrum | Dntt of Ntt.spectrum

let kind_name = function Fft -> "fft" | Ntt -> "ntt"

let kind_of_name = function
  | "fft" -> Some Fft
  | "ntt" -> Some Ntt
  | _ -> None

let kind_code = function Fft -> 0 | Ntt -> 1
let kind_of_code = function 0 -> Some Fft | 1 -> Some Ntt | _ -> None

let precompute kind n =
  match kind with Fft -> Negacyclic.precompute n | Ntt -> Ntt.precompute n

let tables_ready kind n =
  match kind with Fft -> Negacyclic.tables_ready n | Ntt -> Ntt.tables_ready n

let create kind n =
  match kind with
  | Fft -> Dfft (Negacyclic.spectrum_create n)
  | Ntt -> Dntt (Ntt.spectrum_create n)

let copy = function
  | Dfft s -> Dfft (Negacyclic.spectrum_copy s)
  | Dntt s -> Dntt (Ntt.spectrum_copy s)

let zero = function
  | Dfft s -> Negacyclic.spectrum_zero s
  | Dntt s -> Ntt.spectrum_zero s

let kind_of = function Dfft _ -> Fft | Dntt _ -> Ntt

(* Allocating forward of a signed integer polynomial — the key-generation
   path.  The FFT branch converts through floats exactly as the historical
   [Poly.to_floats ~centred:true] pipeline did, so FFT keysets are
   bit-identical to those produced before this layer existed. *)
let forward_signed kind (xs : int array) =
  match kind with
  | Fft -> Dfft (Negacyclic.forward (Array.map float_of_int xs))
  | Ntt -> Dntt (Ntt.forward xs)

(* The inverse of [forward_signed], non-destructive: the FFT's result
   rounded to the nearest integer, or the NTT's exact centred lift. *)
let backward_signed = function
  | Dfft s -> Array.map (fun x -> int_of_float (Float.round x)) (Negacyclic.backward s)
  | Dntt s -> Ntt.backward s

let mul_add_into acc a b =
  match (acc, a, b) with
  | Dfft acc, Dfft a, Dfft b -> Negacyclic.mul_add_into acc a b
  | Dntt acc, Dntt a, Dntt b -> Ntt.mul_add_into acc a b
  | _ -> invalid_arg "Transform.mul_add_into: mixed transform domains"
