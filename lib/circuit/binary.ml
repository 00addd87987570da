module Wire = Pytfhe_util.Wire

(* Every decoding fault is data corruption, not a programming error: it
   raises [Wire.Corrupt] so executors reject hostile streams gracefully. *)
let corrupt fmt = Printf.ksprintf (fun msg -> raise (Wire.Corrupt ("Binary: " ^ msg))) fmt

type instruction =
  | Header of { gate_total : int }
  | Input_decl of { index : int }
  | Gate_inst of { gate : Gate.t; in0 : int; in1 : int }
  | Lut_inst of { table : int; ins : int array }
  | Output_decl of { index : int }

let all_ones_62 = 0x3FFFFFFFFFFFFFFF
let tag_header = 0x0
let tag_input = 0xF
let tag_output = 0x3
let tag_lut = 0xC

(* LUT record B-field layout: arity in bits 0–1, table in 2–9, second and
   third operands in 10–35 and 36–61 (26 bits each); in0 rides the A field. *)
let lut_operand_mask = 0x3FFFFFF

let encode_words a b tag =
  let b64 = Int64.of_int b in
  let lo = Int64.logor (Int64.shift_left b64 4) (Int64.of_int (tag land 0xF)) in
  let hi =
    Int64.logor (Int64.shift_left (Int64.of_int a) 2) (Int64.shift_right_logical b64 60)
  in
  (lo, hi)

let decode_words lo hi =
  let tag = Int64.to_int (Int64.logand lo 0xFL) in
  let b =
    Int64.to_int
      (Int64.logand
         (Int64.logor (Int64.shift_right_logical lo 4) (Int64.shift_left hi 60))
         0x3FFFFFFFFFFFFFFFL)
  in
  let a = Int64.to_int (Int64.logand (Int64.shift_right_logical hi 2) 0x3FFFFFFFFFFFFFFFL) in
  (a, b, tag)

let instruction_words = function
  | Header { gate_total } -> encode_words 0 gate_total tag_header
  | Input_decl { index } -> encode_words all_ones_62 index tag_input
  | Gate_inst { gate; in0; in1 } -> encode_words in0 in1 (Gate.to_code gate)
  | Lut_inst { table; ins } ->
    let arity = Array.length ins in
    let in1 = if arity > 1 then ins.(1) else 0 in
    let in2 = if arity > 2 then ins.(2) else 0 in
    encode_words ins.(0) (arity lor (table lsl 2) lor (in1 lsl 10) lor (in2 lsl 36)) tag_lut
  | Output_decl { index } -> encode_words all_ones_62 index tag_output

let decode_lut a b =
  let arity = b land 0x3 in
  let table = (b lsr 2) land 0xFF in
  let in1 = (b lsr 10) land lut_operand_mask in
  let in2 = (b lsr 36) land lut_operand_mask in
  if arity = 0 then corrupt "LUT record with arity 0";
  if table >= 1 lsl (1 lsl arity) then
    corrupt "LUT table %#x too wide for arity %d" table arity;
  if arity < 3 && in2 <> 0 then corrupt "nonzero reserved operand bits in LUT record";
  if arity < 2 && in1 <> 0 then corrupt "nonzero reserved operand bits in LUT record";
  let ins = Array.sub [| a; in1; in2 |] 0 arity in
  Lut_inst { table; ins }

let instruction_of_words lo hi =
  let a, b, tag = decode_words lo hi in
  if tag = tag_header && a = 0 then Header { gate_total = b }
  else if tag = tag_input && a = all_ones_62 then Input_decl { index = b }
  else if tag = tag_output && a = all_ones_62 then Output_decl { index = b }
  else if tag = tag_lut then decode_lut a b
  else
    match Gate.of_code tag with
    | Some gate -> Gate_inst { gate; in0 = a; in1 = b }
    | None -> corrupt "unknown instruction tag %d" tag

let pp_instruction fmt = function
  | Header { gate_total } -> Format.fprintf fmt "header  gates=%d" gate_total
  | Input_decl { index } -> Format.fprintf fmt "input   -> %d" index
  | Gate_inst { gate; in0; in1 } -> Format.fprintf fmt "%-7s %d, %d" (Gate.name gate) in0 in1
  | Lut_inst { table; ins } ->
    Format.fprintf fmt "lut%d/%#-4x %s" (Array.length ins) table
      (String.concat ", " (Array.to_list (Array.map string_of_int ins)))
  | Output_decl { index } -> Format.fprintf fmt "output  <- %d" index

let emit buf inst =
  let lo, hi = instruction_words inst in
  Buffer.add_int64_le buf lo;
  Buffer.add_int64_le buf hi

(* A streamed binary's header cannot know the final gate count up front, so
   it carries this sentinel; executors treat it as "unknown" and skip the
   gate-budget check.  Buffered producers backpatch the real count. *)
let streamed_gate_total = all_ones_62

let patch_header bytes gate_total =
  if Bytes.length bytes < 16 then failwith "Binary.patch_header: no header instruction";
  let lo, hi = instruction_words (Header { gate_total }) in
  Bytes.set_int64_le bytes 0 lo;
  Bytes.set_int64_le bytes 8 hi

(* ------------------------------------------------------------------ *)
(* Streaming assembler                                                 *)
(* ------------------------------------------------------------------ *)

(* Emits the instruction stream node by node, in netlist id order, as
   construction proceeds — peak memory is one output chunk, not the whole
   binary.  Index assignment is identical to the one-shot [assemble] for
   input-first netlists (the only kind the frontends build): inputs and
   gates take consecutive stream indices in id order, and a constant
   materialises at its own id slot as XOR/XNOR over the first input.
   Nodes created before any input exists are deferred and flushed when the
   first input arrives; a netlist whose outputs never gain an index (live
   constants, no inputs) is rejected at [finish]. *)
module Emit = struct
  type t = {
    net : Netlist.t;
    write : bytes -> unit;
    chunk : int;  (* flush threshold in bytes *)
    buf : Buffer.t;
    mutable index_of : int array;  (* netlist id -> stream index; -1 unassigned *)
    mutable next : int;  (* next stream index *)
    mutable first_input : int;  (* stream index of the first input; -1 until seen *)
    mutable deferred : int list;  (* reversed ids awaiting the first input *)
    mutable gate_total : int;
    mutable bootstraps : int;
    rotations : (int list, unit) Hashtbl.t;  (* operand sets of multi-input LUTs *)
    mutable bytes_emitted : int;
    mutable finished : bool;
  }

  let create ?(chunk = 1 lsl 16) ~write net =
    let e =
      {
        net;
        write;
        chunk = max chunk 16;
        buf = Buffer.create 4096;
        index_of = Array.make 1024 (-1);
        next = 1;
        first_input = -1;
        deferred = [];
        gate_total = 0;
        bootstraps = 0;
        rotations = Hashtbl.create 16;
        bytes_emitted = 0;
        finished = false;
      }
    in
    emit e.buf (Header { gate_total = streamed_gate_total });
    e

  let maybe_flush e =
    if Buffer.length e.buf >= e.chunk then begin
      e.bytes_emitted <- e.bytes_emitted + Buffer.length e.buf;
      e.write (Buffer.to_bytes e.buf);
      Buffer.clear e.buf
    end

  let index_of e id =
    if id < Array.length e.index_of then e.index_of.(id) else -1

  let assign e id =
    let n = Array.length e.index_of in
    if id >= n then begin
      let grown = Array.make (max (2 * n) (id + 1)) (-1) in
      Array.blit e.index_of 0 grown 0 n;
      e.index_of <- grown
    end;
    let index = e.next in
    e.index_of.(id) <- index;
    e.next <- index + 1;
    index

  let rec note e id =
    if e.finished then invalid_arg "Binary.Emit.note: emitter already finished";
    match Netlist.kind e.net id with
    | Netlist.Input _ ->
      let index = assign e id in
      emit e.buf (Input_decl { index });
      maybe_flush e;
      if e.first_input < 0 then begin
        e.first_input <- index;
        let pending = List.rev e.deferred in
        e.deferred <- [];
        List.iter (note e) pending
      end
    | Netlist.Const v ->
      if e.first_input < 0 then e.deferred <- id :: e.deferred
      else begin
        (* XOR(i,i) = 0, XNOR(i,i) = 1. *)
        ignore (assign e id);
        let g = if v then Gate.Xnor else Gate.Xor in
        emit e.buf (Gate_inst { gate = g; in0 = e.first_input; in1 = e.first_input });
        e.gate_total <- e.gate_total + 1;
        e.bootstraps <- e.bootstraps + 1;
        maybe_flush e
      end
    | Netlist.Gate (g, a, b) ->
      if index_of e a < 0 || index_of e b < 0 then e.deferred <- id :: e.deferred
      else begin
        let in0 = index_of e a and in1 = index_of e b in
        ignore (assign e id);
        emit e.buf (Gate_inst { gate = g; in0; in1 });
        e.gate_total <- e.gate_total + 1;
        if not (Gate.is_unary g) then e.bootstraps <- e.bootstraps + 1;
        maybe_flush e
      end
    | Netlist.Lut { table; ins } ->
      if Array.exists (fun a -> index_of e a < 0) ins then e.deferred <- id :: e.deferred
      else begin
        let mapped = Array.map (fun a -> index_of e a) ins in
        Array.iteri
          (fun j idx ->
            if j > 0 && idx > lut_operand_mask then
              failwith "Binary.assemble: LUT operand index exceeds the 26-bit record field")
          mapped;
        ignore (assign e id);
        emit e.buf (Lut_inst { table; ins = mapped });
        e.gate_total <- e.gate_total + 1;
        (* Multi-input cells on one operand set share a blind rotation. *)
        if Array.length mapped = 1 then e.bootstraps <- e.bootstraps + 1
        else begin
          let operands = List.sort compare (Array.to_list mapped) in
          if not (Hashtbl.mem e.rotations operands) then begin
            Hashtbl.add e.rotations operands ();
            e.bootstraps <- e.bootstraps + 1
          end
        end;
        maybe_flush e
      end

  let attach e = Netlist.set_observer e.net (note e)

  let finish e =
    if e.finished then invalid_arg "Binary.Emit.finish: emitter already finished";
    e.finished <- true;
    (* Deferred gates reference constants in an input-less netlist; deferred
       constants are fatal only when something observable needs them. *)
    let deferred_live =
      List.exists (fun id -> match Netlist.kind e.net id with Netlist.Const _ -> false | _ -> true)
        e.deferred
      || List.exists (fun (_, id) -> index_of e id < 0) (Netlist.outputs e.net)
    in
    if deferred_live then
      failwith "Binary.assemble: live constants but no inputs to derive them from";
    List.iter
      (fun (_, id) ->
        let index = index_of e id in
        if index < 0 then failwith "Binary.assemble: output references an unemitted node";
        emit e.buf (Output_decl { index }))
      (Netlist.outputs e.net);
    e.bytes_emitted <- e.bytes_emitted + Buffer.length e.buf;
    e.write (Buffer.to_bytes e.buf);
    Buffer.clear e.buf;
    e.gate_total

  let bytes_emitted e = e.bytes_emitted + Buffer.length e.buf
  let gate_total e = e.gate_total
  let bootstraps e = e.bootstraps
end

let assemble net =
  let out = Buffer.create 1024 in
  let e = Emit.create ~chunk:max_int ~write:(Buffer.add_bytes out) net in
  for id = 0 to Netlist.node_count net - 1 do
    Emit.note e id
  done;
  let gate_total = Emit.finish e in
  let bytes = Buffer.to_bytes out in
  patch_header bytes gate_total;
  bytes

let instruction_count bytes =
  let len = Bytes.length bytes in
  if len mod 16 <> 0 then corrupt "truncated instruction stream";
  len / 16

let bytes_source bytes =
  let sent = ref false in
  fun () ->
    if !sent then None
    else begin
      sent := true;
      Some bytes
    end

let read_source ?(chunk = 1 lsl 16) ic =
  let buf = Bytes.create chunk in
  fun () ->
    let n = input ic buf 0 chunk in
    if n = 0 then None else Some (Bytes.sub buf 0 n)

let reader read =
  (* Chunks arrive with arbitrary framing; the unread tail of one chunk (a
     partial instruction) is carried in front of the next. *)
  let buf = ref Bytes.empty and pos = ref 0 and any = ref false in
  let rec next () =
    if Bytes.length !buf - !pos >= 16 then begin
      let p = !pos in
      pos := p + 16;
      any := true;
      Some (instruction_of_words (Bytes.get_int64_le !buf p) (Bytes.get_int64_le !buf (p + 8)))
    end
    else
      match read () with
      | Some chunk ->
        let rest = Bytes.length !buf - !pos in
        buf := if rest = 0 then chunk else Bytes.cat (Bytes.sub !buf !pos rest) chunk;
        pos := 0;
        next ()
      | None ->
        if Bytes.length !buf > !pos then corrupt "truncated instruction stream";
        if not !any then corrupt "empty stream";
        None
  in
  next

let disassemble bytes =
  let next = reader (bytes_source bytes) in
  let rec go acc = match next () with Some inst -> go (inst :: acc) | None -> List.rev acc in
  match go [] with
  | Header _ :: _ as insts -> insts
  | _ -> corrupt "missing header instruction"

(* The stream rules.  Sequential numbering (Fig. 5) makes each one a check
   against the next index, so the checker keeps one byte per assigned
   index: whether that value is lutdom-encoded. *)
module Check = struct
  type t = {
    mutable gate_total : int;  (* -1 until the header *)
    mutable gates : int;
    mutable inputs : int;
    lut : Buffer.t;  (* byte i - 1: '\001' when index i holds a lutdom value *)
  }

  let create () = { gate_total = -1; gates = 0; inputs = 0; lut = Buffer.create 1024 }
  let assign c ~lut = Buffer.add_char c.lut (if lut then '\001' else '\000')
  let is_lut c index = Buffer.nth c.lut (index - 1) = '\001'
  let inputs c = c.inputs
  let constant c = assign c ~lut:false

  let operand c index =
    if index < 1 || index > Buffer.length c.lut then
      corrupt "reference to an unassigned index %d" index

  let count_gate c =
    c.gates <- c.gates + 1;
    (* A streamed header carries the sentinel, not a count. *)
    if c.gate_total <> streamed_gate_total && c.gates > c.gate_total then
      corrupt "more gates than the header declared"

  let feed c = function
    | Header { gate_total } ->
      if c.gate_total >= 0 then corrupt "duplicate header";
      c.gate_total <- gate_total
    | _ when c.gate_total < 0 -> corrupt "missing header instruction"
    | Input_decl { index } ->
      if index <> Buffer.length c.lut + 1 then corrupt "non-sequential input index %d" index;
      c.inputs <- c.inputs + 1;
      assign c ~lut:false
    | Gate_inst { in0; in1; _ } ->
      operand c in0;
      operand c in1;
      count_gate c;
      assign c ~lut:false
    | Lut_inst { ins; _ } ->
      let arity = Array.length ins in
      Array.iter
        (fun index ->
          operand c index;
          if arity > 1 && not (is_lut c index) then
            corrupt "lut%d operand %d is not lutdom-encoded" arity index)
        ins;
      count_gate c;
      assign c ~lut:true
    | Output_decl { index } -> operand c index
end

let parse bytes =
  let net = Netlist.create ~hash_consing:false ~fold_constants:false () in
  let c = Check.create () and next = reader (bytes_source bytes) in
  (* With folding and hash-consing off, every value instruction adds one
     fresh node, so index i is node i - 1. *)
  let rec go outputs =
    match next () with
    | None -> net
    | Some inst -> (
      Check.feed c inst;
      match inst with
      | Header _ -> go outputs
      | Input_decl _ ->
        ignore (Netlist.input net (Printf.sprintf "in%d" (Check.inputs c - 1)));
        go outputs
      | Gate_inst { gate; in0; in1 } ->
        ignore (Netlist.gate net gate (in0 - 1) (in1 - 1));
        go outputs
      | Lut_inst { table; ins } ->
        ignore (Netlist.lut net ~table (Array.map pred ins));
        go outputs
      | Output_decl { index } ->
        Netlist.mark_output net (Printf.sprintf "out%d" outputs) (index - 1);
        go (outputs + 1))
  in
  go 0

let write_file path bytes =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_bytes oc bytes)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let len = in_channel_length ic in
      let bytes = Bytes.create len in
      really_input ic bytes 0 len;
      bytes)
