module Binary = Pytfhe_circuit.Binary
module Gate = Pytfhe_circuit.Gate
module Wire = Pytfhe_util.Wire

let not_lutdom arity idx =
  Wire.Corrupt (Printf.sprintf "Stream_exec: lut%d operand %d is not lutdom-encoded" arity idx)

(* The plaintext interpreter: one pass over the instruction stream with a
   value table indexed by the sequential gate numbering, so lookups are
   array reads.  The table grows geometrically: the header only declares
   the gate count, not the input count.  Each slot carries the bit plus
   its encoding, so a multi-input LUT cell over a classic value is caught
   as the structural corruption it would be on ciphertexts. *)
let run_bits bytes ins =
  let table = ref [||] in
  let next = ref 1 in
  let input_ordinal = ref 0 in
  let gate_total = ref (-1) in
  let seen_gates = ref 0 in
  let outputs = ref [] in
  let ensure index =
    if Array.length !table <= index then begin
      let bigger = Array.make (max (2 * Array.length !table) (index + 16)) None in
      Array.blit !table 0 bigger 0 (Array.length !table);
      table := bigger
    end
  in
  let fetch index =
    if index < 1 || index >= !next then failwith "Stream_exec: reference to an unassigned index";
    match !table.(index) with
    | Some cell -> cell
    | None -> failwith "Stream_exec: reference to an unassigned index"
  in
  let count_gate () =
    if !gate_total < 0 then failwith "Stream_exec: missing header instruction";
    incr seen_gates;
    (* A streamed binary's header carries the sentinel instead of a count;
       the gate-budget check only applies to exact headers. *)
    if !gate_total <> Binary.streamed_gate_total && !seen_gates > !gate_total then
      failwith "Stream_exec: more gates than the header declared";
    ensure !next
  in
  Binary.iter bytes (fun inst ->
      match inst with
      | Binary.Header { gate_total = g } ->
        if !gate_total >= 0 then failwith "Stream_exec: duplicate header";
        gate_total := g
      | Binary.Input_decl { index } ->
        if !gate_total < 0 then failwith "Stream_exec: missing header instruction";
        if index <> !next then failwith "Stream_exec: non-sequential input index";
        if !input_ordinal >= Array.length ins then
          invalid_arg "Stream_exec.run_bits: more input declarations than inputs";
        ensure index;
        !table.(index) <- Some (ins.(!input_ordinal), false);
        incr input_ordinal;
        incr next
      | Binary.Gate_inst { gate; in0; in1 } ->
        count_gate ();
        !table.(!next) <- Some (Gate.eval gate (fst (fetch in0)) (fst (fetch in1)), false);
        incr next
      | Binary.Lut_inst { table = tbl; ins = lins } ->
        count_gate ();
        let arity = Array.length lins in
        (* The decoder already bounds arity and table; what only the value
           stream can check is the operand encoding.  The message index is
           the MSB-first operand word, matching [Netlist.eval]. *)
        let m =
          Array.fold_left
            (fun acc idx ->
              let v, is_lut = fetch idx in
              if arity > 1 && not is_lut then raise (not_lutdom arity idx);
              (acc lsl 1) lor Bool.to_int v)
            0 lins
        in
        !table.(!next) <- Some ((tbl lsr m) land 1 = 1, true);
        incr next
      | Binary.Output_decl { index } -> outputs := fst (fetch index) :: !outputs);
  if !gate_total < 0 then failwith "Stream_exec: missing header instruction";
  if !input_ordinal <> Array.length ins then
    invalid_arg
      (Printf.sprintf "Stream_exec.run_bits: the program declares %d inputs, %d given"
         !input_ordinal (Array.length ins));
  Array.of_list (List.rev !outputs)
