module Rng = Pytfhe_util.Rng

type secret_keyset = {
  params : Params.t;
  lwe_key : Lwe.key;
  tlwe_key : Tlwe.key;
  extracted_key : Lwe.key;
}

type cloud_keyset = {
  cloud_params : Params.t;
  bootstrap_key : Bootstrap.key;
  keyswitch_key : Keyswitch.key;
}

let key_gen rng (p : Params.t) =
  let lwe_key = Lwe.key_gen rng ~n:p.lwe.n in
  let tlwe_key = Tlwe.key_gen rng p in
  let extracted_key = Tlwe.extract_key tlwe_key in
  let bootstrap_key = Bootstrap.key_gen rng p ~lwe_key ~tlwe_key in
  let keyswitch_key = Keyswitch.key_gen rng p ~in_key:extracted_key ~out_key:lwe_key in
  ( { params = p; lwe_key; tlwe_key; extracted_key },
    { cloud_params = p; bootstrap_key; keyswitch_key } )

let mu8 sign = Torus.mod_switch_to (if sign then 1 else 7) ~msize:8
let quarter sign = Torus.mod_switch_to (if sign then 1 else 3) ~msize:4

let encrypt_bit rng ks bit =
  Lwe.encrypt rng ks.lwe_key ~stdev:ks.params.lwe.lwe_stdev (mu8 bit)

let decrypt_bit ks c = Lwe.decrypt_bit ks.lwe_key c

let constant ck bit = Lwe.trivial ~n:ck.cloud_params.lwe.n (mu8 bit)

let not_gate _ck c = Lwe.neg c

(* Every two-input gate is a linear phase combination followed by the same
   sign bootstrap (mu = 1/8) and key switch.  The combination is captured as
   a data value so gates of any kind share a launch: torus arithmetic is
   exact mod 2^32, so building the phase as const ± scale·a ± scale·b is
   bit-identical however the additions are grouped. *)
type combine_plan = {
  plan_const : Torus.t;
  plan_scale : int;
  plan_sign_a : int;
  plan_sign_b : int;
}

let nand_plan = { plan_const = mu8 true; plan_scale = 1; plan_sign_a = -1; plan_sign_b = -1 }
let and_plan = { plan_const = mu8 false; plan_scale = 1; plan_sign_a = 1; plan_sign_b = 1 }
let or_plan = { plan_const = mu8 true; plan_scale = 1; plan_sign_a = 1; plan_sign_b = 1 }
let nor_plan = { plan_const = mu8 false; plan_scale = 1; plan_sign_a = -1; plan_sign_b = -1 }
let andny_plan = { plan_const = mu8 false; plan_scale = 1; plan_sign_a = -1; plan_sign_b = 1 }
let andyn_plan = { plan_const = mu8 false; plan_scale = 1; plan_sign_a = 1; plan_sign_b = -1 }
let orny_plan = { plan_const = mu8 true; plan_scale = 1; plan_sign_a = -1; plan_sign_b = 1 }
let oryn_plan = { plan_const = mu8 true; plan_scale = 1; plan_sign_a = 1; plan_sign_b = -1 }
let xor_plan = { plan_const = quarter true; plan_scale = 2; plan_sign_a = 1; plan_sign_b = 1 }
let xnor_plan = { plan_const = quarter false; plan_scale = 2; plan_sign_a = -1; plan_sign_b = -1 }

let combine plan ~dst ~drow ~a ~arow ~b ~brow =
  let s = plan.plan_scale in
  Lwe_array.affine_into ~dst ~drow plan.plan_const
    [ (plan.plan_sign_a * s, a, arow); (plan.plan_sign_b * s, b, brow) ]

(* ------------------------------------------------------------------ *)
(* Batched wave execution                                              *)
(* ------------------------------------------------------------------ *)

(* The wrapper over the one batched bootstrap: the caller combines the
   phases of up to [cap] cells — classic gates and LUT cells alike, each
   row with its own job — and gets the key-switched outputs back from one
   key-streaming pass per key.  The keyset-level calls at the end of this
   file are its one-cell case. *)
type batch_cell =
  | Cell_sign of { mu : Torus.t; post : Torus.t }
  | Cell_lut of { arity : int; tables : int array }

let gate_cell = Cell_sign { mu = mu8 true; post = Torus.zero }

let cell_job = function
  | Cell_sign { mu; _ } -> Bootstrap.Job_sign mu
  | Cell_lut { arity; _ } -> Bootstrap.Job_lut (1 lsl arity)

let cell_outputs = function Cell_sign _ -> 1 | Cell_lut { tables; _ } -> Array.length tables

type batch_context = {
  bkeyset : cloud_keyset;
  bboot : Bootstrap.batch;
  (* Launch scratch, grown on demand: the extracted slots (k·N), one k·N
     row per output, and the key-switched outputs (n). *)
  mutable bslots : Lwe_array.t;
  mutable bsel : Lwe_array.t;
  mutable bout : Lwe_array.t;
  mutable ks_blocks : int;
}

let context_on ck bboot ~slots ~outputs =
  let p = ck.cloud_params in
  let en = Params.extracted_n p in
  {
    bkeyset = ck;
    bboot;
    bslots = Lwe_array.create ~n:en slots;
    bsel = Lwe_array.create ~n:en outputs;
    bout = Lwe_array.create ~n:p.lwe.n outputs;
    ks_blocks = 0;
  }

let batch_context ck ~cap =
  context_on ck (Bootstrap.batch_create ck.cloud_params ~cap) ~slots:cap ~outputs:cap

let batch_capacity bc = Bootstrap.batch_capacity bc.bboot

let fit a len =
  if Lwe_array.length a >= len then a
  else Lwe_array.create ~n:(Lwe_array.dim a) (max len (2 * Lwe_array.length a))

(* Combined phase rows in, key-switched output rows out, zero per-cell
   record materialization in between.  The returned array is a view into
   the context's own scratch — valid until the next launch on this
   context, so the caller blits the rows it needs before relaunching. *)
let bootstrap_batch bc (cells : batch_cell array) (src : Lwe_array.t) =
  let count = Lwe_array.length src in
  if Array.length cells <> count then invalid_arg "Gates.bootstrap_batch: one cell per row";
  if count > batch_capacity bc then
    invalid_arg "Gates.bootstrap_batch: batch larger than the workspace capacity";
  let jobs = Array.map cell_job cells in
  let outputs = Array.fold_left (fun acc c -> acc + cell_outputs c) 0 cells in
  bc.bslots <- fit bc.bslots (Array.fold_left (fun acc j -> acc + Bootstrap.job_slots j) 0 jobs);
  bc.bsel <- fit bc.bsel outputs;
  bc.bout <- fit bc.bout outputs;
  let sel = Lwe_array.slice bc.bsel ~pos:0 ~len:outputs in
  let out = Lwe_array.slice bc.bout ~pos:0 ~len:outputs in
  if count > 0 then begin
    let p = bc.bkeyset.cloud_params in
    Bootstrap.batch_rows_into p bc.bboot bc.bkeyset.bootstrap_key jobs ~src ~dst:bc.bslots;
    (* Select in the extracted domain: a sign slot is its own output, a
       table sums its indicators in ascending message order. *)
    let s = ref 0 and o = ref 0 in
    Array.iter
      (function
        | Cell_sign _ ->
          Lwe_array.blit ~src:bc.bslots ~src_pos:!s ~dst:sel ~dst_pos:!o ~len:1;
          incr s;
          incr o
        | Cell_lut { arity; tables } ->
          Array.iter
            (fun table ->
              Lwe_array.set_trivial sel !o Torus.zero;
              for m = 0 to (1 lsl arity) - 1 do
                if (table lsr m) land 1 = 1 then
                  Lwe_array.add_into ~dst:sel ~drow:!o ~a:sel ~arow:!o ~b:bc.bslots ~brow:(!s + m)
              done;
              incr o)
            tables;
          s := !s + (1 lsl arity))
      cells;
    bc.ks_blocks <-
      bc.ks_blocks + Keyswitch.apply_batch_rows_into bc.bkeyset.keyswitch_key ~src:sel ~dst:out;
    (* Arity-1 cells land on lutdom by a trivial offset after the key switch. *)
    let o = ref 0 in
    Array.iter
      (fun c ->
        (match c with
        | Cell_sign { post; _ } ->
          Lwe_array.unsafe_set32 out.Lwe_array.bodies !o (Torus.add (Lwe_array.body out !o) post)
        | Cell_lut _ -> ());
        o := !o + cell_outputs c)
      cells
  end;
  out

let bootstrap_batch_rows bc (src : Lwe_array.t) =
  bootstrap_batch bc (Array.make (Lwe_array.length src) gate_cell) src

type batch_counters = {
  batch_launches : int;  (** batched bootstrap kernel launches *)
  batch_gates : int;  (** rows processed through those launches *)
  bsk_rows : int;  (** bootstrapping-key entries streamed, unit {!Bootstrap.row_bytes} *)
  ks_blocks : int;  (** key-switch table blocks streamed, unit {!Keyswitch.block_bytes} *)
}

let batch_counters bc =
  let bs = Bootstrap.batch_stats bc.bboot in
  {
    batch_launches = bs.Bootstrap.launches;
    batch_gates = bs.Bootstrap.gates_batched;
    bsk_rows = bs.Bootstrap.bsk_rows_streamed;
    ks_blocks = bc.ks_blocks;
  }

let reset_batch_counters bc =
  Bootstrap.batch_reset_stats bc.bboot;
  bc.ks_blocks <- 0

module Wire = Pytfhe_util.Wire

let write_secret_keyset buf sk =
  Wire.write_magic buf "SKST";
  Params.write buf sk.params;
  Lwe.write_key buf sk.lwe_key;
  Tlwe.write_key buf sk.tlwe_key

let read_secret_keyset r =
  Wire.read_magic r "SKST";
  let params = Params.read r in
  let lwe_key = Lwe.read_key r in
  let tlwe_key = Tlwe.read_key r in
  (* [Lwe.read_key] already checks that its bits are binary. *)
  if lwe_key.Lwe.key_n <> params.lwe.n then
    raise (Wire.Corrupt "secret LWE key does not have the keyset's dimension n");
  let polys = tlwe_key.Tlwe.polys in
  if
    Array.length polys <> params.tlwe.k
    || Array.exists
         (fun poly ->
           Array.length poly <> params.tlwe.ring_n || Array.exists (fun c -> c <> 0 && c <> 1) poly)
         polys
  then raise (Wire.Corrupt "secret ring key is not k binary polynomials of N coefficients");
  { params; lwe_key; tlwe_key; extracted_key = Tlwe.extract_key tlwe_key }

let write_cloud_keyset buf ck =
  Wire.write_magic buf "CKST";
  Params.write buf ck.cloud_params;
  Bootstrap.write buf ck.bootstrap_key;
  Keyswitch.write buf ck.keyswitch_key

let read_cloud_keyset r =
  Wire.read_magic r "CKST";
  let cloud_params = Params.read r in
  let bootstrap_key = Bootstrap.read cloud_params r in
  let keyswitch_key = Keyswitch.read cloud_params r in
  { cloud_params; bootstrap_key; keyswitch_key }

let half_torus_encode ~msize v = Torus.mod_switch_to v ~msize:(2 * msize)

let encrypt_message rng sk ~msize v =
  if v < 0 || v >= msize then invalid_arg "Gates.encrypt_message: message out of range";
  Lwe.encrypt rng sk.lwe_key ~stdev:sk.params.Params.lwe.Params.lwe_stdev
    (half_torus_encode ~msize v)

let decrypt_message sk ~msize c =
  Torus.mod_switch_from (Lwe.phase sk.lwe_key c) ~msize:(2 * msize) mod msize

let apply_lut ck ~msize ~table c =
  if Array.length table <> msize then invalid_arg "Gates.apply_lut: table arity mismatch";
  let p = ck.cloud_params in
  let f mu = half_torus_encode ~msize (((table.(mu) mod msize) + msize) mod msize) in
  let extracted = Bootstrap.programmable p ck.bootstrap_key ~msize f c in
  Keyswitch.apply ck.keyswitch_key extracted

(* ------------------------------------------------------------------ *)
(* Programmable LUT cells (lutdom encoding)                            *)
(* ------------------------------------------------------------------ *)

(* LUT cells carry bits in the "lutdom" encoding b/16 ∈ {0, 1/16} instead of
   the classic ±1/8: three lutdom bits combine as 4a+2b+c into a message
   mod 8 whose phase never leaves the negacyclic half-torus, which is what
   makes an arbitrary 3-input table one blind rotation.  A classic bit
   enters lutdom through an arity-1 cell (one sign bootstrap); a lutdom bit
   converts back to classic for free via [lut_to_classic]. *)

let lut_unit = Bootstrap.lut_amplitude

let encrypt_lut_bit rng sk bit =
  Lwe.encrypt rng sk.lwe_key ~stdev:sk.params.Params.lwe.Params.lwe_stdev
    (if bit then lut_unit else Torus.zero)

let decrypt_lut_bit sk c = Torus.mod_switch_from (Lwe.phase sk.lwe_key c) ~msize:16 = 1

let lut_constant ck bit =
  Lwe.trivial ~n:ck.cloud_params.lwe.n (if bit then lut_unit else Torus.zero)

(* 4·(b/16) − 1/8 = ±1/8: exact, no bootstrap. *)
let lut_to_classic ~dst ~drow src srow =
  Lwe_array.affine_into ~dst ~drow (Torus.neg (mu8 true)) [ (4, src, srow) ]

(* φ = Σ 2^(2−i)·opsᵢ: operand 0 is the message's MSB.  The weight is
   independent of arity — lutdom carries bits at 1/16, so weight 2^(2−i)
   places message m at m/(2·msize) for every msize = 2^arity, which the
   doubled rotation modulus turns into exactly m slots. *)
let lut_combine ~dst ~drow src rows =
  if Array.length rows < 1 || Array.length rows > 3 then
    invalid_arg "Gates.lut_combine: arity out of range";
  Lwe_array.affine_into ~dst ~drow Torus.zero
    (List.mapi (fun i row -> (1 lsl (2 - i), src, row)) (Array.to_list rows))

(* Arity-1 cells are a sign bootstrap in disguise: the classic input decides
   between table bits t₁ (input true) and t₀, via mu = (t₁−t₀)/32 and a
   post-keyswitch offset (t₁+t₀)/32 — landing exactly on t/16 lutdom. *)
let thirty_second v = Torus.mul_int v (Torus.mod_switch_to 1 ~msize:32)
let lut1_mu ~table = thirty_second (((table lsr 1) land 1) - (table land 1))
let lut1_post ~table = thirty_second (((table lsr 1) land 1) + (table land 1))

let sign_cell ~table = Cell_sign { mu = lut1_mu ~table; post = lut1_post ~table }

(* ------------------------------------------------------------------ *)
(* Keyset-level calls: one-cell launches                               *)
(* ------------------------------------------------------------------ *)

(* Each keyset-level call is the one-cell case of [bootstrap_batch], run on
   the workspace embedded in the bootstrapping key ([Bootstrap.scratch]):
   its operands are staged as rows, combined by the executors' own row
   maps into row 0, and launched. *)
let stage ck ops = Lwe_array.of_samples ~n:ck.cloud_params.lwe.n ops

let launch ck cell rows =
  let bc =
    context_on ck (Bootstrap.scratch ck.bootstrap_key)
      ~slots:(Bootstrap.job_slots (cell_job cell))
      ~outputs:(cell_outputs cell)
  in
  Lwe_array.to_samples (bootstrap_batch bc [| cell |] (Lwe_array.slice rows ~pos:0 ~len:1))

let gate plan ck a b =
  let ops = stage ck [| a; b |] in
  combine plan ~dst:ops ~drow:0 ~a:ops ~arow:0 ~b:ops ~brow:1;
  (launch ck gate_cell ops).(0)

let nand_gate ck a b = gate nand_plan ck a b
let and_gate ck a b = gate and_plan ck a b
let or_gate ck a b = gate or_plan ck a b
let nor_gate ck a b = gate nor_plan ck a b
let andny_gate ck a b = gate andny_plan ck a b
let andyn_gate ck a b = gate andyn_plan ck a b
let orny_gate ck a b = gate orny_plan ck a b
let oryn_gate ck a b = gate oryn_plan ck a b
let xor_gate ck a b = gate xor_plan ck a b
let xnor_gate ck a b = gate xnor_plan ck a b

let mux_gate ck s x y =
  let p = ck.cloud_params in
  let mu = Params.mu p in
  (* u1 = bootstrap(s AND x) and u2 = bootstrap(¬s AND y) share one
     two-row launch under the extracted key; their sum plus 1/8
     re-encodes the selected bit, and a single key switch brings it
     home. *)
  let src = stage ck [| s; x; s; y |] in
  combine and_plan ~dst:src ~drow:0 ~a:src ~arow:0 ~b:src ~brow:1;
  combine andny_plan ~dst:src ~drow:1 ~a:src ~arow:2 ~b:src ~brow:3;
  let src = Lwe_array.slice src ~pos:0 ~len:2 in
  let u = Lwe_array.create ~n:(Params.extracted_n p) 2 in
  Bootstrap.batch_rows_into p (Bootstrap.scratch ck.bootstrap_key) ck.bootstrap_key
    [| Bootstrap.Job_sign mu; Bootstrap.Job_sign mu |]
    ~src ~dst:u;
  Lwe_array.add_into ~dst:u ~drow:0 ~a:u ~arow:0 ~b:u ~brow:1;
  Lwe_array.unsafe_set32 u.Lwe_array.bodies 0 (Torus.add (Lwe_array.body u 0) (mu8 true));
  Keyswitch.apply ck.keyswitch_key (Lwe_array.get u 0)

let lut1 ck ~table c = (launch ck (sign_cell ~table) (stage ck [| c |])).(0)
let reencode ck c = lut1 ck ~table:0b10 c

let lut_multi ck ~arity ~tables ops =
  let rows = stage ck ops in
  lut_combine ~dst:rows ~drow:0 rows (Array.init arity Fun.id);
  launch ck (Cell_lut { arity; tables }) rows

let lut2_multi ck ~tables a b = lut_multi ck ~arity:2 ~tables [| a; b |]
let lut3_multi ck ~tables a b c = lut_multi ck ~arity:3 ~tables [| a; b; c |]
let lut2 ck ~table a b = (lut2_multi ck ~tables:[| table |] a b).(0)
let lut3 ck ~table a b c = (lut3_multi ck ~tables:[| table |] a b c).(0)
