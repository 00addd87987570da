module Transform = Pytfhe_fft.Transform

type lwe = { n : int; lwe_stdev : float }
type tlwe = { ring_n : int; k : int; tlwe_stdev : float }
type tgsw = { l : int; bg_bit : int }
type keyswitch = { t : int; base_bit : int }

type t = {
  name : string;
  lwe : lwe;
  tlwe : tlwe;
  tgsw : tgsw;
  ks : keyswitch;
  transform : Transform.kind;
}

let pow2 e = 2.0 ** float_of_int e

let default_128 =
  {
    name = "default-128";
    lwe = { n = 630; lwe_stdev = pow2 (-15) };
    tlwe = { ring_n = 1024; k = 1; tlwe_stdev = pow2 (-25) };
    tgsw = { l = 3; bg_bit = 7 };
    ks = { t = 8; base_bit = 2 };
    transform = Transform.Fft;
  }

let test =
  {
    name = "test-insecure";
    lwe = { n = 64; lwe_stdev = pow2 (-20) };
    tlwe = { ring_n = 256; k = 1; tlwe_stdev = pow2 (-30) };
    tgsw = { l = 3; bg_bit = 6 };
    ks = { t = 12; base_bit = 2 };
    transform = Transform.Fft;
  }

let extracted_n p = p.tlwe.k * p.tlwe.ring_n
let bg p = 1 lsl p.tgsw.bg_bit
let ks_base p = 1 lsl p.ks.base_bit
let mu _ = Torus.mod_switch_to 1 ~msize:8

let with_transform p transform = { p with transform }

let precompute p = Transform.precompute p.transform p.tlwe.ring_n

let pp fmt p =
  Format.fprintf fmt
    "%s: n=%d N=%d k=%d l=%d Bg=2^%d ks(t=%d, base=2^%d) sigma_lwe=%.3g sigma_bk=%.3g transform=%s"
    p.name p.lwe.n p.tlwe.ring_n p.tlwe.k p.tgsw.l p.tgsw.bg_bit p.ks.t p.ks.base_bit
    p.lwe.lwe_stdev p.tlwe.tlwe_stdev
    (Transform.kind_name p.transform)

module Wire = Pytfhe_util.Wire

let write buf p =
  Wire.write_magic buf "TPRM";
  Wire.write_string buf p.name;
  Wire.write_i64 buf p.lwe.n;
  Wire.write_f64 buf p.lwe.lwe_stdev;
  Wire.write_i64 buf p.tlwe.ring_n;
  Wire.write_i64 buf p.tlwe.k;
  Wire.write_f64 buf p.tlwe.tlwe_stdev;
  Wire.write_i64 buf p.tgsw.l;
  Wire.write_i64 buf p.tgsw.bg_bit;
  Wire.write_i64 buf p.ks.t;
  Wire.write_i64 buf p.ks.base_bit;
  Wire.write_u8 buf (Transform.kind_code p.transform)

let equal a b = a = b

(* Worst-case magnitude of an external-product coefficient in integer
   units: (k+1)·l digit rows, each a degree-N product of digits ≤ Bg/2
   with centred torus words < 2³¹.  The NTT is exact only while this stays
   under half the CRT modulus. *)
let ntt_peak p =
  let rows = float_of_int ((p.tlwe.k + 1) * p.tgsw.l) in
  rows *. float_of_int p.tlwe.ring_n
  *. float_of_int (1 lsl (p.tgsw.bg_bit - 1))
  *. 2147483648.0

let validate p =
  if p.lwe.n <= 0 then Error "n must be positive"
  else if p.tlwe.ring_n <= 0 || p.tlwe.ring_n land (p.tlwe.ring_n - 1) <> 0 then
    Error "ring degree N must be a positive power of two"
  else if p.tlwe.k <= 0 then Error "k must be positive"
  else if p.tgsw.l <= 0 || p.tgsw.bg_bit <= 0 then Error "gadget parameters must be positive"
  else if p.tgsw.l * p.tgsw.bg_bit > 32 then Error "gadget decomposition exceeds 32 bits"
  else if p.ks.t <= 0 || p.ks.base_bit <= 0 then Error "key-switch parameters must be positive"
  else if p.ks.t * p.ks.base_bit > 31 then Error "key-switch decomposition exceeds 31 bits"
  else if
    not (Float.is_finite p.lwe.lwe_stdev && p.lwe.lwe_stdev > 0.0)
    || not (Float.is_finite p.tlwe.tlwe_stdev && p.tlwe.tlwe_stdev > 0.0)
  then Error "noise standard deviations must be positive and finite"
  else if p.transform = Transform.Ntt && p.tlwe.ring_n > 1 lsl 20 then
    Error "ring degree exceeds the NTT prime 2-adicity (N must be <= 2^20)"
  else if
    p.transform = Transform.Ntt
    && 2.0 *. ntt_peak p >= float_of_int Pytfhe_fft.Ntt.modulus
  then Error "gadget bounds exceed the NTT modulus headroom ((k+1)*l*N*Bg/2*2^31 >= M/2)"
  else Ok ()

let read r =
  Wire.read_magic r "TPRM";
  let name = Wire.read_string r in
  let n = Wire.read_i64 r in
  let lwe_stdev = Wire.read_f64 r in
  let ring_n = Wire.read_i64 r in
  let k = Wire.read_i64 r in
  let tlwe_stdev = Wire.read_f64 r in
  let l = Wire.read_i64 r in
  let bg_bit = Wire.read_i64 r in
  let t = Wire.read_i64 r in
  let base_bit = Wire.read_i64 r in
  let transform =
    let code = Wire.read_u8 r in
    match Transform.kind_of_code code with
    | Some k -> k
    | None -> raise (Wire.Corrupt (Printf.sprintf "unknown transform code %d" code))
  in
  let p =
    {
      name;
      lwe = { n; lwe_stdev };
      tlwe = { ring_n; k; tlwe_stdev };
      tgsw = { l; bg_bit };
      ks = { t; base_bit };
      transform;
    }
  in
  (* Structural checks before any key decoder sizes a buffer from [p]. *)
  match validate p with Ok () -> p | Error msg -> raise (Wire.Corrupt ("parameters: " ^ msg))

let custom ?(transform = Transform.Fft) ~name ~n ~lwe_stdev ~ring_n ~k ~tlwe_stdev ~l ~bg_bit
    ~ks_t ~ks_base_bit () =
  let p =
    {
      name;
      lwe = { n; lwe_stdev };
      tlwe = { ring_n; k; tlwe_stdev };
      tgsw = { l; bg_bit };
      ks = { t = ks_t; base_bit = ks_base_bit };
      transform;
    }
  in
  match validate p with Ok () -> p | Error msg -> invalid_arg ("Params.custom: " ^ msg)
