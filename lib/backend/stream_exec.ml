module Binary = Pytfhe_circuit.Binary
module Gate = Pytfhe_circuit.Gate
module Wire = Pytfhe_util.Wire
module Trace = Pytfhe_obs.Trace
module Gates = Pytfhe_tfhe.Gates
module Lwe = Pytfhe_tfhe.Lwe

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
  Array.of_list (List.rev !outputs)

(* --- Segmented wave driver ------------------------------------------------

   The streaming wave source: instructions are consumed as they arrive,
   bootstrapped work is queued by wave (level = 1 + max operand level
   within the current segment) and handed to [run_wave] one wave at a time
   as the same jobs the netlist source builds — without a netlist.  Once
   the queued bootstrap count reaches [window], the segment is flushed
   level by level, so peak queued work stays bounded however large the
   stream is.

   NOT gates are noiseless: one whose operand is already computed is
   evaluated at once; one that reads a still-pending wave is queued after
   that wave's jobs, in arrival order, exactly like [Levelize.waves]. *)

type pending =
  | P_gate of { gate : Gate.t; in0 : int; in1 : int; dst : int }
  | P_lut of { table : int; ins : int array; dst : int }

let run_waves ?(obs = Trace.null) ?(window = 1 lsl 15) ?(probe = ignore) ~run_wave cloud read
    inputs =
  if window < 1 then invalid_arg "Stream_exec.run_waves: window must be positive";
  let traced = Trace.enabled obs in
  let p = cloud.Gates.cloud_params in
  let tr = Trace.new_track obs ~name:"stream-waves" in
  if traced then Exec_obs.noise_gauges tr p;
  let t_start = Trace.now obs in
  (* Slot table: value (None while pending), lutdom flag, segment level
     (-1 unassigned, 0 computed, >0 pending in the current segment). *)
  let cap = ref 16 in
  let values = ref (Array.make !cap None) in
  let is_lut = ref (Array.make !cap false) in
  let levels = ref (Array.make !cap (-1)) in
  let ensure index =
    if index >= !cap then begin
      let bigger = max (2 * !cap) (index + 16) in
      let v = Array.make bigger None and l = Array.make bigger false
      and lv = Array.make bigger (-1) in
      Array.blit !values 0 v 0 !cap;
      Array.blit !is_lut 0 l 0 !cap;
      Array.blit !levels 0 lv 0 !cap;
      values := v;
      is_lut := l;
      levels := lv;
      cap := bigger
    end
  in
  let next = ref 1 in
  let input_ordinal = ref 0 in
  let gate_total = ref (-1) in
  let seen_gates = ref 0 in
  let outputs = ref [] in
  let level_of index =
    if index < 1 || index >= !next || !levels.(index) < 0 then
      failwith "Stream_exec: reference to an unassigned index";
    !levels.(index)
  in
  let raw index =
    match !values.(index) with
    | Some v -> v
    | None -> failwith "Stream_exec: reference to an unassigned index"
  in
  let classic index = if !is_lut.(index) then Gates.lut_to_classic (raw index) else raw index in
  let set_value dst v =
    !values.(dst) <- Some v;
    !levels.(dst) <- 0
  in
  (* Segment queues, one parallel + one inline list per level (index l-1),
     built in reverse arrival order. *)
  let seg_par = ref (Array.make 8 []) in
  let seg_inl = ref (Array.make 8 []) in
  let seg_depth = ref 0 in
  let seg_boots = ref 0 in
  let seg_ensure l =
    if l > Array.length !seg_par then begin
      let bigger = max (2 * Array.length !seg_par) l in
      let p = Array.make bigger [] and i = Array.make bigger [] in
      Array.blit !seg_par 0 p 0 (Array.length !seg_par);
      Array.blit !seg_inl 0 i 0 (Array.length !seg_inl);
      seg_par := p;
      seg_inl := i
    end
  in
  let segments = ref 0 in
  let boots = ref 0 in
  let nots = ref 0 in
  let widths = ref [] in
  let walls = ref [] in
  let add_job bd = function
    | P_gate { gate; in0; in1; dst } -> Wave.add_gate bd ~dst gate (classic in0) (classic in1)
    | P_lut { table; ins; dst } ->
      let operands = if Array.length ins = 1 then [| classic ins.(0) |] else Array.map raw ins in
      Wave.add_lut bd ~dst ~table ~ins operands
  in
  let flush () =
    if !seg_depth > 0 then begin
      incr segments;
      for l = 1 to !seg_depth do
        let par = List.rev !seg_par.(l - 1) and inl = List.rev !seg_inl.(l - 1) in
        !seg_par.(l - 1) <- [];
        !seg_inl.(l - 1) <- [];
        let t0 = Trace.now obs in
        let alloc0 = if traced then Exec_obs.alloc_words () else 0.0 in
        let jobs, outs =
          if par = [] then ([||], [||])
          else begin
            let bd = Wave.gather () in
            List.iter (add_job bd) par;
            let jobs, dsts = Wave.gathered bd in
            let outs = run_wave jobs in
            if Array.length outs <> Array.length dsts then
              failwith "Stream_exec: wave runner returned the wrong number of results";
            Array.iteri (fun i dst -> set_value dst outs.(i)) dsts;
            (jobs, outs)
          end
        in
        List.iter (fun (in0, dst) -> set_value dst (Lwe.neg (classic in0))) inl;
        nots := !nots + List.length inl;
        if par <> [] then begin
          boots := !boots + Array.length jobs;
          widths := Array.length jobs :: !widths;
          walls := (Trace.now obs -. t0) :: !walls;
          if traced then
            Wave.wave_probe obs tr p ~probe ~jobs:(Array.length jobs)
              ~outputs:(Array.length outs) ~nots:(List.length inl) ~alloc0
        end
      done;
      seg_depth := 0;
      seg_boots := 0
    end
  in
  let require_header () =
    if !gate_total < 0 then failwith "Stream_exec: missing header instruction"
  in
  let count_gate () =
    incr seen_gates;
    if !gate_total <> Binary.streamed_gate_total && !seen_gates > !gate_total then
      failwith "Stream_exec: more gates than the header declared"
  in
  let queue_parallel l p =
    seg_ensure l;
    !seg_par.(l - 1) <- p :: !seg_par.(l - 1);
    if l > !seg_depth then seg_depth := l;
    incr seg_boots;
    !levels.(!next) <- l;
    incr next;
    if !seg_boots >= window then flush ()
  in
  (* NOTs evaluated outside any wave, counted once at the end. *)
  let early_nots = ref 0 in
  Binary.iter_source read (fun inst ->
      match inst with
      | Binary.Header { gate_total = g } ->
        if !gate_total >= 0 then failwith "Stream_exec: duplicate header";
        gate_total := g
      | Binary.Input_decl { index } ->
        require_header ();
        if index <> !next then failwith "Stream_exec: non-sequential input index";
        if !input_ordinal >= Array.length inputs then
          invalid_arg "Stream_exec.run_waves: wrong number of inputs for the stream";
        ensure index;
        set_value index inputs.(!input_ordinal);
        incr input_ordinal;
        incr next
      | Binary.Gate_inst { gate; in0; in1 } ->
        require_header ();
        count_gate ();
        ensure !next;
        if Gate.is_unary gate then begin
          let base = level_of in0 in
          if base = 0 then begin
            set_value !next (Lwe.neg (classic in0));
            incr nots;
            incr early_nots
          end
          else begin
            seg_ensure base;
            !seg_inl.(base - 1) <- (in0, !next) :: !seg_inl.(base - 1);
            !levels.(!next) <- base
          end;
          incr next
        end
        else begin
          let la = level_of in0 and lb = level_of in1 in
          queue_parallel (1 + max la lb) (P_gate { gate; in0; in1; dst = !next })
        end
      | Binary.Lut_inst { table; ins } ->
        require_header ();
        count_gate ();
        ensure !next;
        let arity = Array.length ins in
        let base = ref 0 in
        Array.iter
          (fun idx ->
            let l = level_of idx in
            if arity > 1 && not !is_lut.(idx) then raise (not_lutdom arity idx);
            if l > !base then base := l)
          ins;
        !is_lut.(!next) <- true;
        queue_parallel (1 + !base) (P_lut { table; ins; dst = !next })
      | Binary.Output_decl { index } ->
        require_header ();
        ignore (level_of index);
        outputs := index :: !outputs);
  if !gate_total < 0 then failwith "Stream_exec: missing header instruction";
  flush ();
  let result = Array.of_list (List.rev_map classic !outputs) in
  let wave_width = Array.of_list (List.rev !widths) in
  if traced then begin
    Trace.span tr ~cat:"run" ~name:"stream_waves" ~t0:t_start ~t1:(Trace.now obs);
    Trace.counter tr ~name:"segments" (float_of_int !segments);
    Trace.counter tr ~name:"waves" (float_of_int (Array.length wave_width));
    Trace.counter tr ~name:"nots" (float_of_int !early_nots);
    Trace.drain obs
  end;
  ( result,
    {
      Wave.bootstraps = !boots;
      nots = !nots;
      wave_wall = Array.of_list (List.rev !walls);
      wave_width;
    } )

let run_encrypted_stream ?(opts = Exec_opts.default) ?window cloud read cts =
  let start = Unix.gettimeofday () in
  let p = cloud.Gates.cloud_params in
  let e = Wave.engine cloud ~cap:opts.Exec_opts.batch in
  let outputs, ws =
    run_waves ~obs:opts.Exec_opts.obs ?window ~probe:(Tfhe_eval.traffic_probe p e)
      ~run_wave:(Wave.exec e) cloud read cts
  in
  (outputs, Tfhe_eval.stats_of ~start ~cap:opts.Exec_opts.batch p e ws)
