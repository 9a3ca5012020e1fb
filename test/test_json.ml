(* Core.Json: the printer and the parser agree, numbers are exact, and
   every document the toolchain writes parses back to the tree it was
   printed from. *)

module J = Core.Json

let roundtrip v = J.parse (J.to_string v)

let check_roundtrip what v =
  match roundtrip v with
  | Ok v' ->
      Alcotest.(check bool) (what ^ " parses back to its tree") true (v = v')
  | Error e -> Alcotest.failf "%s does not parse: %s" what e

(* ---------------------------------------------------------------- *)
(* qcheck: parse (to_string v) = v                                   *)
(* ---------------------------------------------------------------- *)

(* strings biased towards the bytes an escaper can get wrong *)
let gen_string =
  let open QCheck.Gen in
  let byte =
    frequency
      [
        (3, oneofl [ '"'; '\\'; '\n'; '\t'; '\r'; '\001'; '\031'; '/' ]);
        (2, map Char.chr (int_range 0x80 0xff));
        (1, map Char.chr (int_range 0 0x1f));
        (4, printable);
      ]
  in
  string_size ~gen:byte (int_range 0 12)

let gen_float =
  let open QCheck.Gen in
  let finite f = if Float.is_finite f then f else 0. in
  frequency
    [
      (3, map finite float);
      (2, map float_of_int int);
      (1, map (fun f -> finite f *. 1e-300) float);
      (1, oneofl [ 0.; -0.; 0.1; 1e6 +. 1.; 26474140576426.668; 2. ** 53. ]);
    ]

let gen_value =
  let open QCheck.Gen in
  sized
  @@ fix (fun self n ->
         let leaf =
           frequency
             [
               (1, return J.Null);
               (1, map (fun b -> J.Bool b) bool);
               (3, map (fun f -> J.Num f) gen_float);
               (3, map (fun s -> J.Str s) gen_string);
             ]
         in
         if n <= 0 then leaf
         else
           let sub = self (n / 2) in
           frequency
             [
               (2, leaf);
               (1, map (fun l -> J.Arr l) (list_size (int_range 0 4) sub));
               ( 1,
                 map
                   (fun l -> J.Obj l)
                   (list_size (int_range 0 4) (pair gen_string sub)) );
             ])

let prop_roundtrip =
  QCheck.Test.make ~name:"json: parse (to_string v) = v"
    ~count:(Qcount.count 500)
    (QCheck.make ~print:J.to_string gen_value)
    (fun v -> roundtrip v = Ok v)

(* ---------------------------------------------------------------- *)
(* Unit cases                                                        *)
(* ---------------------------------------------------------------- *)

let test_escapes () =
  Alcotest.(check string)
    "one escape rule" {|"a\"b\\c\nd\u0001e\u0009"|}
    (J.to_string (J.Str "a\"b\\c\nd\001e\t"));
  Alcotest.(check bool)
    "\\u escapes decode to UTF-8" true
    (J.parse {|"\u0001é😀\/"|} = Ok (J.Str "\001\xc3\xa9\xf0\x9f\x98\x80/"));
  Alcotest.(check bool)
    "a bad \\u escape is an error" true
    (Result.is_error (J.parse {|"\u00zz"|}))

let test_numbers () =
  List.iter
    (fun (f, s) -> Alcotest.(check string) s s (J.number f))
    [
      (0., "0");
      (1e6 +. 1., "1000001");
      (26474140576426., "26474140576426");
      (2. ** 60., "1152921504606846976");
      (0.1, "0.1");
      (0.5905, "0.5905");
      (1e-5, "1e-05");
      (26474140576426.668, "26474140576426.668");
      (Float.nan, "null");
    ]

(* ---------------------------------------------------------------- *)
(* The documents the toolchain writes                                *)
(* ---------------------------------------------------------------- *)

let test_trace_document () =
  let c = Core.Pipeline.compile Benchsuite.Nw.prog in
  let r =
    Gpu.Exec.run ~trace:true c.Core.Pipeline.opt
      (Benchsuite.Nw.small_args ~q:3 ~b:4)
  in
  check_roundtrip "NW trace" (Core.Trace.to_json (Option.get r.Gpu.Exec.trace))

let test_cert_document () =
  Symalg.Prover.reset_stats ();
  let c = Core.Pipeline.compile ~certify:true Benchsuite.Hotspot.prog in
  let d =
    Benchsuite.Benchjson.(
      cert_doc
        [ cert_bench "hotspot" c.Core.Pipeline.certs ]
        (Symalg.Prover.stats ()))
  in
  check_roundtrip "combined certificate document" d;
  Alcotest.(check bool) "carries the prover object" true
    (J.num_at [ "prover"; "nonneg_misses" ] d <> None)

let tests =
  [
    QCheck_alcotest.to_alcotest prop_roundtrip;
    Alcotest.test_case "escapes and \\u decoding" `Quick test_escapes;
    Alcotest.test_case "number rule" `Quick test_numbers;
    Alcotest.test_case "traced NW run parses" `Quick test_trace_document;
    Alcotest.test_case "certificate document parses" `Quick test_cert_document;
  ]
