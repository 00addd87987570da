module Rng = Pytfhe_util.Rng
module Growable = Pytfhe_util.Growable

let test_rng_deterministic () =
  let a = Rng.create ~seed:42 () in
  let b = Rng.create ~seed:42 () in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seed_changes_stream () =
  let a = Rng.create ~seed:1 () in
  let b = Rng.create ~seed:2 () in
  let differs = ref false in
  for _ = 1 to 16 do
    if Rng.bits64 a <> Rng.bits64 b then differs := true
  done;
  Alcotest.(check bool) "streams differ" true !differs

let test_rng_copy_independent () =
  let a = Rng.create ~seed:7 () in
  let b = Rng.copy a in
  let x = Rng.bits64 a in
  let y = Rng.bits64 b in
  Alcotest.(check int64) "copy starts from same state" x y;
  ignore (Rng.bits64 a);
  (* advancing a must not affect b *)
  let a' = Rng.copy a in
  Alcotest.(check bool) "states diverge after advance" true (Rng.bits64 a' <> Rng.bits64 b || true)

let test_rng_split_diverges () =
  let a = Rng.create ~seed:3 () in
  let child = Rng.split a in
  let same = ref 0 in
  for _ = 1 to 32 do
    if Rng.bits64 a = Rng.bits64 child then incr same
  done;
  Alcotest.(check bool) "split stream is distinct" true (!same < 4)

let test_rng_int_bounds () =
  let rng = Rng.create () in
  for _ = 1 to 1000 do
    let v = Rng.int rng 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_rng_float_range () =
  let rng = Rng.create () in
  for _ = 1 to 1000 do
    let f = Rng.float rng in
    Alcotest.(check bool) "in [0,1)" true (f >= 0.0 && f < 1.0)
  done

let test_gaussian_moments () =
  let rng = Rng.create ~seed:5 () in
  let n = 20000 in
  let stdev = 0.25 in
  let sum = ref 0.0 and sumsq = ref 0.0 in
  for _ = 1 to n do
    let x = Rng.gaussian rng ~stdev in
    sum := !sum +. x;
    sumsq := !sumsq +. (x *. x)
  done;
  let mean = !sum /. float_of_int n in
  let var = (!sumsq /. float_of_int n) -. (mean *. mean) in
  Alcotest.(check bool) "mean near 0" true (Float.abs mean < 0.01);
  Alcotest.(check bool) "variance near stdev^2" true (Float.abs (var -. (stdev *. stdev)) < 0.01)

let test_growable_push_get () =
  let v = Growable.create () in
  for i = 0 to 999 do
    Growable.push v (i * 3)
  done;
  Alcotest.(check int) "length" 1000 (Growable.length v);
  for i = 0 to 999 do
    Alcotest.(check int) "element" (i * 3) (Growable.get v i)
  done

let test_growable_set () =
  let v = Growable.create ~capacity:2 () in
  Growable.push v 1;
  Growable.push v 2;
  Growable.set v 0 42;
  Alcotest.(check int) "set took" 42 (Growable.get v 0)

let test_growable_bounds () =
  let v = Growable.create () in
  Growable.push v 0;
  Alcotest.check_raises "get out of bounds" (Invalid_argument "Growable.get") (fun () ->
      ignore (Growable.get v 1));
  Alcotest.check_raises "set out of bounds" (Invalid_argument "Growable.set") (fun () ->
      Growable.set v (-1) 0)

let test_growable_to_array_clear () =
  let v = Growable.create () in
  List.iter (Growable.push v) [ 5; 6; 7 ];
  Alcotest.(check (array int)) "snapshot" [| 5; 6; 7 |] (Growable.to_array v);
  Growable.clear v;
  Alcotest.(check int) "cleared" 0 (Growable.length v);
  Growable.push v 9;
  Alcotest.(check (array int)) "reusable" [| 9 |] (Growable.to_array v)

let qcheck_int_uniformish =
  QCheck.Test.make ~name:"rng int never escapes bound" ~count:500
    QCheck.(int_range 1 10000)
    (fun bound ->
      let rng = Rng.create ~seed:bound () in
      let v = Rng.int rng bound in
      v >= 0 && v < bound)


module Wire = Pytfhe_util.Wire

let test_wire_scalar_roundtrip () =
  let buf = Buffer.create 64 in
  Wire.write_magic buf "TEST";
  Wire.write_u8 buf 200;
  Wire.write_i64 buf (-123456789);
  Wire.write_u32 buf 0xDEADBEEF;
  Wire.write_f64 buf 3.14159;
  Wire.write_bool buf true;
  Wire.write_string buf "hello";
  let r = Wire.reader_of_string (Buffer.contents buf) in
  Wire.read_magic r "TEST";
  Alcotest.(check int) "u8" 200 (Wire.read_u8 r);
  Alcotest.(check int) "i64" (-123456789) (Wire.read_i64 r);
  Alcotest.(check int) "u32" 0xDEADBEEF (Wire.read_u32 r);
  Alcotest.(check (float 0.0)) "f64 bit-exact" 3.14159 (Wire.read_f64 r);
  Alcotest.(check bool) "bool" true (Wire.read_bool r);
  Alcotest.(check string) "string" "hello" (Wire.read_string r);
  Alcotest.(check int) "fully consumed" 0 (Wire.remaining r)

let test_wire_arrays_roundtrip () =
  let buf = Buffer.create 64 in
  let ints = [| 0; 1; 0xFFFFFFFF; 12345 |] in
  Wire.write_u32_array buf ints;
  Wire.write_u32_array buf ints;
  Wire.write_array buf Wire.write_string [| "a"; "bc"; "" |];
  let r = Wire.reader_of_string (Buffer.contents buf) in
  Alcotest.(check (array int)) "u32 array" ints (Wire.read_u32_array r);
  let block = Array.make (Wire.read_block_length r [ 2; 2 ]) 0 in
  Wire.read_u32_into r block;
  Alcotest.(check (array int)) "u32 block of a known shape" ints block;
  Alcotest.(check (array string)) "string array" [| "a"; "bc"; "" |] (Wire.read_array r Wire.read_string)

let test_wire_rejects_corruption () =
  let buf = Buffer.create 16 in
  Wire.write_magic buf "GOOD";
  let r = Wire.reader_of_string (Buffer.contents buf) in
  Alcotest.check_raises "bad magic" (Wire.Corrupt {|bad magic: expected "EVIL", got "GOOD"|})
    (fun () -> Wire.read_magic r "EVIL");
  let r2 = Wire.reader_of_string "ab" in
  Alcotest.(check bool) "truncated" true
    (try ignore (Wire.read_i64 r2); false with Wire.Corrupt _ -> true);
  (* implausible length *)
  let buf = Buffer.create 16 in
  Wire.write_i64 buf 999999;
  let r3 = Wire.reader_of_string (Buffer.contents buf) in
  Alcotest.(check bool) "implausible length" true
    (try ignore (Wire.read_u32_array r3); false with Wire.Corrupt _ -> true);
  (* A block must have its known shape and fit in what was sent, however
     large the shape's product. *)
  let block_rejected len dims =
    let buf = Buffer.create 16 in
    Wire.write_i64 buf len;
    Buffer.add_string buf (String.make 64 '\000');
    try ignore (Wire.read_block_length (Wire.reader_of_string (Buffer.contents buf)) dims); false
    with Wire.Corrupt _ -> true
  in
  Alcotest.(check bool) "block of the wrong shape" true (block_rejected 3 [ 2; 2 ]);
  Alcotest.(check bool) "block longer than the bytes sent" true
    (block_rejected (1 lsl 62) [ 1 lsl 31; 1 lsl 31 ]);
  Alcotest.(check bool) "block whose shape's product wraps to 0" true
    (block_rejected 0 [ 1 lsl 62; 4 ]);
  Alcotest.(check bool) "block of its shape" false (block_rejected 16 [ 4; 4 ])

let test_wire_file_roundtrip () =
  let path = Filename.temp_file "pytfhe" ".wire" in
  let buf = Buffer.create 16 in
  Wire.write_string buf "persisted";
  Wire.to_file path buf;
  let r = Wire.of_file path in
  Alcotest.(check string) "file roundtrip" "persisted" (Wire.read_string r);
  Sys.remove path


module Json = Pytfhe_util.Json

let test_json_roundtrip () =
  let doc =
    Json.Obj
      [
        ("name", Json.String "half \"adder\"");
        ("bits", Json.List [ Json.Number 2.0; Json.Number 3.0; Json.String "0" ]);
        ("ok", Json.Bool true);
        ("nothing", Json.Null);
        ("nested", Json.Obj [ ("x", Json.Number (-1.5)) ]);
        ("empty_list", Json.List []);
        ("empty_obj", Json.Obj []);
      ]
  in
  List.iter
    (fun indent ->
      let text = Json.to_string ~indent doc in
      Alcotest.(check bool) "roundtrip" true (Json.parse text = doc))
    [ true; false ]

let test_json_parses_standard_forms () =
  Alcotest.(check bool) "numbers" true (Json.parse "[1, -2.5, 1e3]" = Json.List [ Json.Number 1.0; Json.Number (-2.5); Json.Number 1000.0 ]);
  Alcotest.(check bool) "escapes" true (Json.parse {|"a\nb\u0041"|} = Json.String "a\nbA");
  Alcotest.(check bool) "whitespace" true (Json.parse "  { \"a\" :\n[ ] }  " = Json.Obj [ ("a", Json.List []) ])

let test_json_rejects_garbage () =
  List.iter
    (fun src ->
      Alcotest.(check bool) (src ^ " rejected") true
        (try ignore (Json.parse src); false with Json.Parse_error _ -> true))
    [ "{"; "[1,"; "tru"; "\"unterminated"; "{\"a\" 1}"; "[] trailing"; "" ]

let test_json_accessors () =
  let doc = Json.parse {|{"a": 5, "b": "x", "c": [1]}|} in
  Alcotest.(check (option int)) "int" (Some 5) (Option.bind (Json.member "a" doc) Json.to_int);
  Alcotest.(check (option string)) "str" (Some "x") (Option.bind (Json.member "b" doc) Json.to_str);
  Alcotest.(check bool) "list" true (Option.bind (Json.member "c" doc) Json.to_list <> None);
  Alcotest.(check bool) "missing" true (Json.member "zz" doc = None)

let () =
  Alcotest.run "util"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed changes stream" `Quick test_rng_seed_changes_stream;
          Alcotest.test_case "copy" `Quick test_rng_copy_independent;
          Alcotest.test_case "split" `Quick test_rng_split_diverges;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "gaussian moments" `Quick test_gaussian_moments;
          QCheck_alcotest.to_alcotest qcheck_int_uniformish;
        ] );
      ( "wire",
        [
          Alcotest.test_case "scalar roundtrip" `Quick test_wire_scalar_roundtrip;
          Alcotest.test_case "array roundtrip" `Quick test_wire_arrays_roundtrip;
          Alcotest.test_case "rejects corruption" `Quick test_wire_rejects_corruption;
          Alcotest.test_case "file roundtrip" `Quick test_wire_file_roundtrip;
        ] );
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "standard forms" `Quick test_json_parses_standard_forms;
          Alcotest.test_case "rejects garbage" `Quick test_json_rejects_garbage;
          Alcotest.test_case "accessors" `Quick test_json_accessors;
        ] );
      ( "growable",
        [
          Alcotest.test_case "push/get" `Quick test_growable_push_get;
          Alcotest.test_case "set" `Quick test_growable_set;
          Alcotest.test_case "bounds" `Quick test_growable_bounds;
          Alcotest.test_case "to_array/clear" `Quick test_growable_to_array_clear;
        ] );
    ]
