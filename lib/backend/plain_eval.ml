module Netlist = Pytfhe_circuit.Netlist
module Binary = Pytfhe_circuit.Binary
module Gate = Pytfhe_circuit.Gate

let run net ins = Netlist.eval_outputs net ins

(* One scan of the checked stream with a bit table indexed by the
   sequential numbering, one byte per value (§IV-C). *)
let run_binary bytes ins =
  let c = Binary.Check.create () and next = Binary.reader (Binary.bytes_source bytes) in
  let bits = Buffer.create 1024 and outputs = ref [] in
  let bit index = Buffer.nth bits (index - 1) = '\001' in
  let push v = Buffer.add_char bits (if v then '\001' else '\000') in
  let rec go () =
    match next () with
    | None -> ()
    | Some inst ->
      Binary.Check.feed c inst;
      (match inst with
      | Binary.Header _ -> ()
      | Binary.Input_decl _ ->
        let k = Binary.Check.inputs c - 1 in
        if k >= Array.length ins then
          invalid_arg "Plain_eval.run_binary: more input declarations than inputs";
        push ins.(k)
      | Binary.Gate_inst { gate; in0; in1 } -> push (Gate.eval gate (bit in0) (bit in1))
      | Binary.Lut_inst { table; ins = operands } ->
        (* The table is indexed by the MSB-first operand word, as in
           [Netlist.eval]. *)
        let m = Array.fold_left (fun m i -> (m lsl 1) lor Bool.to_int (bit i)) 0 operands in
        push ((table lsr m) land 1 = 1)
      | Binary.Output_decl { index } -> outputs := bit index :: !outputs);
      go ()
  in
  go ();
  if Binary.Check.inputs c <> Array.length ins then
    invalid_arg
      (Printf.sprintf "Plain_eval.run_binary: the program declares %d inputs, %d given"
         (Binary.Check.inputs c) (Array.length ins));
  Array.of_list (List.rev !outputs)

let run_named net bindings =
  let ins =
    List.map
      (fun (name, _) ->
        match List.assoc_opt name bindings with
        | Some v -> v
        | None -> raise Not_found)
      (Netlist.inputs net)
  in
  Netlist.eval_outputs net (Array.of_list ins)
