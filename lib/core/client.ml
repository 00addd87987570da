module Rng = Pytfhe_util.Rng
open Pytfhe_tfhe

type t = { secret : Gates.secret_keyset; rng : Rng.t }

(* Without a seed, the stream is drawn from OS entropy, so every keygen
   and every loaded client encrypts under fresh masks. *)
let fresh_rng = function
  | Some seed -> Rng.create ~seed ()
  | None ->
    let entropy = Random.State.make_self_init () in
    Rng.create ~seed:(Int64.to_int (Random.State.bits64 entropy)) ()

let keygen ?(params = Params.default_128) ?seed () =
  let rng = fresh_rng seed in
  let secret, cloud = Gates.key_gen rng params in
  ({ secret; rng }, cloud)

let params t = t.secret.Gates.params

let encrypt_bit t b = Gates.encrypt_bit t.rng t.secret b
let decrypt_bit t c = Gates.decrypt_bit t.secret c

let encrypt_bits t bits = Array.map (encrypt_bit t) bits
let decrypt_bits t cs = Array.map (decrypt_bit t) cs

let encrypt_value t dtype v =
  let pattern = Pytfhe_chiseltorch.Dtype.encode dtype v in
  let w = Pytfhe_chiseltorch.Dtype.width dtype in
  encrypt_bits t (Array.init w (fun i -> (pattern asr i) land 1 = 1))

let decrypt_value t dtype cs =
  let bits = decrypt_bits t cs in
  let pattern = ref 0 in
  Array.iteri (fun i b -> if b then pattern := !pattern lor (1 lsl i)) bits;
  Pytfhe_chiseltorch.Dtype.decode dtype !pattern

let cloud_key_bytes t = Bootstrap.key_bytes (params t) + Keyswitch.table_bytes (params t)

let client_id t =
  let buf = Buffer.create 4096 in
  Gates.write_secret_keyset buf t.secret;
  String.sub (Digest.to_hex (Digest.string (Buffer.contents buf))) 0 16

module Wire = Pytfhe_util.Wire

let save t path =
  let buf = Buffer.create 4096 in
  Gates.write_secret_keyset buf t.secret;
  Wire.to_file path buf

let load path =
  let secret = Gates.read_secret_keyset (Wire.of_file path) in
  { secret; rng = fresh_rng None }
