(* Record references for the linear maps the executors apply to rows:
   the gate combine, the LUT message combine and the lutdom -> classic
   view, written over [Lwe.sample] records with the plain [Lwe] ops.
   Tests build combined inputs with these, so a kernel pin does not
   depend on the row code it checks. *)

open Pytfhe_tfhe

let combine ~n (plan : Gates.combine_plan) a b =
  let scaled x = if plan.plan_scale = 1 then x else Lwe.scale plan.plan_scale x in
  let acc = Lwe.trivial ~n plan.plan_const in
  let acc = if plan.plan_sign_a > 0 then Lwe.add acc (scaled a) else Lwe.sub acc (scaled a) in
  if plan.plan_sign_b > 0 then Lwe.add acc (scaled b) else Lwe.sub acc (scaled b)

(* Σ 2^(2−i)·opsᵢ: operand 0 is the message's MSB. *)
let lut_combine ~n ops =
  let acc = ref (Lwe.trivial ~n Torus.zero) in
  Array.iteri (fun i op -> acc := Lwe.add !acc (Lwe.scale (1 lsl (2 - i)) op)) ops;
  !acc

(* 4y − 1/8: a lutdom bit's classic ±1/8 view. *)
let lut_to_classic c =
  Lwe.sub (Lwe.scale 4 c) (Lwe.trivial ~n:(Array.length c.Lwe.a) (Torus.mod_switch_to 1 ~msize:8))
