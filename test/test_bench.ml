(* Integration tests over the benchmark suite: every case study is
   validated end to end at a reduced size (reference interpreter =
   memory executor, unoptimized = optimized, and = the independent
   direct OCaml implementation), and the expected short-circuiting
   behaviour of the paper's narrative is asserted (which circuits fire
   and which must not). *)

module R = Benchsuite.Runner
module V = Ir.Value

let check_validation name (v : R.validation) =
  List.iter
    (fun (variant, ok) ->
      Alcotest.(check bool) (name ^ ": " ^ variant ^ " = interp") true ok)
    v.R.ok

let check_oracle name out expect =
  match out with
  | [ V.VArr a ] ->
      let d = V.float_data a in
      Alcotest.(check int) (name ^ " oracle length") (Array.length expect)
        (Array.length d);
      Array.iteri
        (fun i x ->
          let s = Float.max 1.0 (Float.abs expect.(i)) in
          if Float.abs (x -. expect.(i)) > 1e-6 *. s then
            Alcotest.failf "%s: oracle mismatch at %d: %g vs %g" name i x
              expect.(i))
        d
  | _ -> Alcotest.fail (name ^ ": unexpected result shape")

let test_nw () =
  let q = 3 and b = 4 in
  let args = Benchsuite.Nw.small_args ~q ~b in
  let c = Core.Pipeline.compile Benchsuite.Nw.prog in
  let v = R.validate ~compiled:c Benchsuite.Nw.prog args in
  check_validation "nw" v;
  (* both halves circuit and all copies disappear *)
  Alcotest.(check bool) "nw: circuits fired" true (v.R.sc_succeeded >= 2);
  Alcotest.(check int) "nw: opt copy-free" 0 v.R.copies_opt;
  check_oracle "nw"
    (Ir.Interp.run c.Core.Pipeline.source args)
    (Benchsuite.Nw.small_direct ~q ~b)

let test_lud () =
  let q = 3 and b = 4 in
  let args = Benchsuite.Lud.small_args ~q ~b in
  let c = Core.Pipeline.compile Benchsuite.Lud.prog in
  let v = R.validate ~compiled:c Benchsuite.Lud.prog args in
  check_validation "lud" v;
  (* yellow + red circuit as in the paper.  The blue temporary is read
     by the interior kernel after its write-back, so its copy must
     remain.  The paper keeps the green (diagonal) copy too, but with
     triangular-bound saturation in the prover the single-thread
     diagonal factorization is proven safe to run in place, so only
     blue's copy survives: one per step except the last, whose
     perimeter phases are branched away (m = 0). *)
  Alcotest.(check int)
    "lud: only blue copies remain" (q - 1) v.R.copies_opt;
  Alcotest.(check bool) "lud: yellow+red+green circuits" true
    (v.R.sc_succeeded >= 3);
  check_oracle "lud"
    (Ir.Interp.run c.Core.Pipeline.source args)
    (Benchsuite.Lud.small_direct ~q ~b)

(* Flushing the prover's memo and intern tables almost constantly must
   change no verdict: the memos only cache answers, and an id cached
   before a flush must never match a context interned after it.  The
   overlap checks a compile issues follow from its verdicts, so they
   match too; only the prover's miss counts grow. *)
let test_lud_flush_safety () =
  let module Pr = Symalg.Prover in
  let verdicts () =
    let c = Core.Pipeline.compile ~certify:true Benchsuite.Lud.prog in
    let certs =
      List.map
        (fun (pass, (r : Core.Certify.report)) ->
          (pass, r.emitted, r.proved, r.concretized, r.failed))
        c.Core.Pipeline.certs
    in
    let st = c.Core.Pipeline.stats and rs = c.Core.Pipeline.reuse_stats in
    let ps = c.Core.Pipeline.pack_stats in
    ( c,
      ( (st.candidates, st.succeeded, st.overlap_checks, st.rebased_vars),
        (rs.Core.Reuse.coalesced, rs.chain_links, rs.rotated, rs.hoisted),
        (ps.Core.Pack.arenas, ps.packed, ps.unpacked, ps.holes),
        ( c.Core.Pipeline.dead_allocs,
          c.Core.Pipeline.reuse_dead_allocs,
          c.Core.Pipeline.pack_dead_allocs ),
        certs ) )
  in
  let _, expect = verdicts () in
  let c, got =
    Fun.protect
      ~finally:(fun () -> Pr.set_limits Pr.default_limits)
      (fun () ->
        Pr.set_limits { Pr.sat_cap = 1; nonneg_cap = 1 };
        verdicts ())
  in
  Alcotest.(check bool) "lud: verdicts unchanged under constant flushing"
    true (expect = got);
  let q = 3 and b = 4 in
  check_validation "lud (flushed)"
    (R.validate ~compiled:c Benchsuite.Lud.prog
       (Benchsuite.Lud.small_args ~q ~b))

let test_hotspot () =
  let n = 16 and steps = 3 in
  let args = Benchsuite.Hotspot.small_args ~n ~steps in
  let c = Core.Pipeline.compile Benchsuite.Hotspot.prog in
  let v = R.validate ~compiled:c Benchsuite.Hotspot.prog args in
  check_validation "hotspot" v;
  Alcotest.(check int) "hotspot: concat free" 0 v.R.copies_opt;
  Alcotest.(check int) "hotspot: 3 parts x steps elided" (3 * steps) v.R.elided;
  check_oracle "hotspot"
    (Ir.Interp.run c.Core.Pipeline.source args)
    (Benchsuite.Hotspot.small_direct ~n ~steps)

let test_lbm () =
  let n = 6 and steps = 2 in
  let args = Benchsuite.Lbm.small_args ~n ~steps in
  let c = Core.Pipeline.compile Benchsuite.Lbm.prog in
  let v = R.validate ~compiled:c Benchsuite.Lbm.prog args in
  check_validation "lbm" v;
  (* per-thread 9-vectors are built in place: one elision per cell/step *)
  Alcotest.(check int) "lbm: per-cell elisions" (n * n * steps) v.R.elided;
  check_oracle "lbm"
    (Ir.Interp.run c.Core.Pipeline.source args)
    (Benchsuite.Lbm.small_direct ~n ~steps)

let test_option_pricing () =
  let npaths = 32 and nsteps = 12 in
  let args = Benchsuite.Option_pricing.small_args ~npaths ~nsteps in
  let c = Core.Pipeline.compile Benchsuite.Option_pricing.prog in
  let v = R.validate ~compiled:c Benchsuite.Option_pricing.prog args in
  check_validation "optionpricing" v;
  Alcotest.(check int) "optionpricing: path elisions" npaths v.R.elided;
  match Ir.Interp.run c.Core.Pipeline.source args with
  | [ V.VFloat price ] ->
      let expect = Benchsuite.Option_pricing.small_direct ~npaths ~nsteps in
      Alcotest.(check (float 1e-9)) "optionpricing price" expect price
  | _ -> Alcotest.fail "optionpricing: bad result shape"

let test_locvolcalib () =
  let numo = 5 and numx = 9 and numt = 3 in
  let args = Benchsuite.Locvolcalib.small_args ~numo ~numx ~numt in
  let c = Core.Pipeline.compile Benchsuite.Locvolcalib.prog in
  let v = R.validate ~compiled:c Benchsuite.Locvolcalib.prog args in
  check_validation "locvolcalib" v;
  Alcotest.(check int) "locvolcalib: per-option elisions" numo v.R.elided;
  check_oracle "locvolcalib"
    (Ir.Interp.run c.Core.Pipeline.source args)
    (Benchsuite.Locvolcalib.small_direct ~numo ~numx ~numt)

let test_nn () =
  let nrec = 64 and nbatch = 4 and bsz = 8 in
  let args = Benchsuite.Nn.small_args ~nrec ~nbatch ~bsz in
  let c = Core.Pipeline.compile Benchsuite.Nn.prog in
  let v = R.validate ~compiled:c Benchsuite.Nn.prog args in
  check_validation "nn" v;
  Alcotest.(check int) "nn: batch copies elided" nbatch v.R.elided;
  Alcotest.(check int) "nn: opt copy-free" 0 v.R.copies_opt;
  check_oracle "nn"
    (Ir.Interp.run c.Core.Pipeline.source args)
    (Benchsuite.Nn.small_direct ~nrec ~nq:(nbatch * bsz))

(* The table harness itself: run one small sanity config through
   Runner.run_table and check the qualitative shape claims. *)
let test_table_shape () =
  let o = Benchsuite.Hotspot.table () in
  Alcotest.(check bool) "hotspot impact >= 1.5 everywhere" true
    (Benchsuite.Table.min_impact o.R.table >= 1.5);
  Alcotest.(check bool) "hotspot impact <= 2.2" true
    (Benchsuite.Table.max_impact o.R.table <= 2.2);
  Alcotest.(check bool) "all hotspot circuits fire" true
    (let st = o.R.compiled.Core.Pipeline.stats in
     st.Core.Shortcircuit.succeeded = st.Core.Shortcircuit.candidates);
  (* [f] holds between two variants' footprints on every dataset *)
  let holds below above f =
    List.for_all
      (fun (_, fs) -> f (List.assoc below fs) (List.assoc above fs))
      o.R.footprints
  in
  Alcotest.(check bool) "footprint shrinks" true
    (holds "unopt" "opt" (fun u opt ->
         opt.R.f_alloc_bytes < u.R.f_alloc_bytes
         && opt.R.f_peak_bytes < u.R.f_peak_bytes));
  Alcotest.(check bool) "reuse shrinks further (hotspot rotation)" true
    (holds "opt" "reuse" (fun opt reuse ->
         reuse.R.f_allocs < opt.R.f_allocs
         && reuse.R.f_peak_bytes < opt.R.f_peak_bytes));
  Alcotest.(check bool) "packing never grows allocs or peak" true
    (holds "reuse" "pack" (fun reuse pack ->
         pack.R.f_allocs <= reuse.R.f_allocs
         && pack.R.f_peak_bytes <= reuse.R.f_peak_bytes))

(* ---------------------------------------------------------------- *)
(* The bench-trajectory gate (Benchjson)                             *)
(* ---------------------------------------------------------------- *)

module BJ = Benchsuite.Benchjson

let sample_record ?(traffic = 512.) ?pool ?(nonneg_misses = 100) ~reuse_ms
    ~allocs () =
  let pool_s =
    match pool with
    | Some (hw, cap) ->
        Printf.sprintf
          {|,"pool":{"hits":1,"misses":1,"device_bytes":%g,"high_water_bytes":%g,"fragmentation":0.0,"cap":%g,"evictions":0}|}
          cap hw cap
    | None -> ""
  in
  Printf.sprintf
    {|{"date":"x","benchmarks":[{"name":"bm","rows":[
        {"device":"A100","dataset":"d","unopt_ms":10.0,"opt_ms":5.0,"reuse_ms":%g}],
      "footprints":[{"dataset":"d",
        "unopt":{"allocs":20,"peak_bytes":4096,"traffic_bytes":2048},
        "opt":{"allocs":5,"peak_bytes":2048,"traffic_bytes":1024},
        "reuse":{"allocs":%d,"peak_bytes":1024,"traffic_bytes":%g%s}}]}],
      "prover":{"sat_misses":5,"nonneg_misses":%d,"budget_exhausted":0}}|}
    reuse_ms allocs traffic pool_s nonneg_misses

let parse_exn s =
  match Core.Json.parse s with
  | Ok v -> v
  | Error e -> Alcotest.failf "parse failed: %s" e

let test_gate_json_roundtrip () =
  let v = parse_exn (sample_record ~reuse_ms:4.0 ~allocs:1 ()) in
  let reuse_ms =
    match Option.bind (Core.Json.member "benchmarks" v) Core.Json.arr with
    | Some (b :: _) -> (
        match Option.bind (Core.Json.member "rows" b) Core.Json.arr with
        | Some (r :: _) -> Core.Json.num_at [ "reuse_ms" ] r
        | _ -> None)
    | _ -> None
  in
  Alcotest.(check (option (float 0.0))) "nested time" (Some 4.0) reuse_ms;
  (* malformed input must be an [Error], not an exception *)
  Alcotest.(check bool) "truncated input rejected" true
    (match Core.Json.parse "{\"a\": [1, 2" with Error _ -> true | Ok _ -> false)

let test_gate_identity_passes () =
  let b = parse_exn (sample_record ~reuse_ms:4.0 ~allocs:1 ()) in
  let g = BJ.gate ~baseline:b ~current:b () in
  Alcotest.(check bool) "identity passes" true (BJ.ok g);
  Alcotest.(check bool) "comparisons performed" true (g.BJ.checked > 0)

let test_gate_catches_time_regression () =
  let b = parse_exn (sample_record ~reuse_ms:4.0 ~allocs:1 ()) in
  let worse = parse_exn (sample_record ~reuse_ms:4.5 ~allocs:1 ()) in
  let g = BJ.gate ~baseline:b ~current:worse () in
  Alcotest.(check bool) "12% slower reuse fails" true (not (BJ.ok g));
  (* within tolerance: passes *)
  let ok = parse_exn (sample_record ~reuse_ms:4.1 ~allocs:1 ()) in
  Alcotest.(check bool) "2.5% drift passes" true
    (BJ.ok (BJ.gate ~baseline:b ~current:ok ()))

let test_gate_catches_footprint_regression () =
  let b = parse_exn (sample_record ~reuse_ms:4.0 ~allocs:1 ()) in
  let worse = parse_exn (sample_record ~reuse_ms:4.0 ~allocs:2 ()) in
  let g = BJ.gate ~baseline:b ~current:worse () in
  (* exact counters are gated monotonically: +1 alloc is a failure
     regardless of any tolerance *)
  Alcotest.(check bool) "alloc growth fails" true (not (BJ.ok g))

let test_gate_catches_traffic_regression () =
  let b = parse_exn (sample_record ~reuse_ms:4.0 ~allocs:1 ()) in
  let worse =
    parse_exn (sample_record ~traffic:600. ~reuse_ms:4.0 ~allocs:1 ())
  in
  (* modeled DRAM traffic is an exact counter too: any growth fails *)
  Alcotest.(check bool) "traffic growth fails" true
    (not (BJ.ok (BJ.gate ~baseline:b ~current:worse ())))

let test_gate_catches_cap_breach () =
  let b = parse_exn (sample_record ~reuse_ms:4.0 ~allocs:1 ()) in
  let breached =
    parse_exn
      (sample_record ~pool:(3000., 2048.) ~reuse_ms:4.0 ~allocs:1 ())
  in
  Alcotest.(check bool) "high-water over cap fails" true
    (not (BJ.ok (BJ.gate ~baseline:b ~current:breached ())));
  let within =
    parse_exn
      (sample_record ~pool:(1500., 2048.) ~reuse_ms:4.0 ~allocs:1 ())
  in
  Alcotest.(check bool) "high-water under cap passes" true
    (BJ.ok (BJ.gate ~baseline:b ~current:within ()))

let test_gate_catches_prover_regression () =
  let b = parse_exn (sample_record ~reuse_ms:4.0 ~allocs:1 ()) in
  let worse =
    parse_exn (sample_record ~nonneg_misses:101 ~reuse_ms:4.0 ~allocs:1 ())
  in
  (* prover memo misses count searches: one more is a failure *)
  Alcotest.(check bool) "one more prover search fails" true
    (not (BJ.ok (BJ.gate ~baseline:b ~current:worse ())));
  let better =
    parse_exn (sample_record ~nonneg_misses:90 ~reuse_ms:4.0 ~allocs:1 ())
  in
  let g = BJ.gate ~baseline:b ~current:better () in
  Alcotest.(check bool) "fewer searches pass" true (BJ.ok g);
  Alcotest.(check bool) "fewer searches noted" true (g.BJ.notes <> [])

let test_gate_improvement_is_note () =
  let b = parse_exn (sample_record ~reuse_ms:4.0 ~allocs:2 ()) in
  let better = parse_exn (sample_record ~reuse_ms:3.0 ~allocs:1 ()) in
  let g = BJ.gate ~baseline:b ~current:better () in
  Alcotest.(check bool) "improvement passes" true (BJ.ok g);
  Alcotest.(check bool) "improvement noted" true (g.BJ.notes <> [])

let test_gate_missing_benchmark_fails () =
  let b = parse_exn (sample_record ~reuse_ms:4.0 ~allocs:1 ()) in
  let empty = parse_exn {|{"date":"x","benchmarks":[]}|} in
  Alcotest.(check bool) "dropped benchmark fails" true
    (not (BJ.ok (BJ.gate ~baseline:b ~current:empty ())));
  (* the other direction is only a note: new benchmarks do not fail *)
  Alcotest.(check bool) "new benchmark passes" true
    (BJ.ok (BJ.gate ~baseline:empty ~current:b ()))

(* A 1-byte peak rise above 1e6 survives the writer: integral values
   print exactly, so the gate reads back the rise (%g printed both as
   1.23457e+06). *)
let test_gate_exact_peak () =
  let record peak =
    Core.Json.(
      Obj
        [
          ( "benchmarks",
            Arr
              [
                Obj
                  [
                    ("name", Str "bm");
                    ( "footprints",
                      Arr
                        [
                          Obj
                            [
                              ("dataset", Str "d");
                              ("reuse", Obj [ ("peak_bytes", Num peak) ]);
                            ];
                        ] );
                  ];
              ] );
        ])
  in
  let reread peak = parse_exn (Core.Json.to_string (record peak)) in
  Alcotest.(check bool) "1-byte peak rise fails" false
    (BJ.ok (BJ.gate ~baseline:(reread 1234567.) ~current:(reread 1234568.) ()))

let tests =
  [
    Alcotest.test_case "NW end-to-end" `Quick test_nw;
    Alcotest.test_case "LUD end-to-end" `Slow test_lud;
    Alcotest.test_case "LUD prover flush safety" `Slow test_lud_flush_safety;
    Alcotest.test_case "Hotspot end-to-end" `Quick test_hotspot;
    Alcotest.test_case "LBM end-to-end" `Quick test_lbm;
    Alcotest.test_case "OptionPricing end-to-end" `Quick test_option_pricing;
    Alcotest.test_case "LocVolCalib end-to-end" `Quick test_locvolcalib;
    Alcotest.test_case "NN end-to-end" `Quick test_nn;
    Alcotest.test_case "Table shape (Hotspot)" `Quick test_table_shape;
    Alcotest.test_case "gate: JSON round-trip" `Quick test_gate_json_roundtrip;
    Alcotest.test_case "gate: identity passes" `Quick
      test_gate_identity_passes;
    Alcotest.test_case "gate: time regression fails" `Quick
      test_gate_catches_time_regression;
    Alcotest.test_case "gate: footprint regression fails" `Quick
      test_gate_catches_footprint_regression;
    Alcotest.test_case "gate: traffic regression fails" `Quick
      test_gate_catches_traffic_regression;
    Alcotest.test_case "gate: pool cap breach fails" `Quick
      test_gate_catches_cap_breach;
    Alcotest.test_case "gate: prover work regression fails" `Quick
      test_gate_catches_prover_regression;
    Alcotest.test_case "gate: improvement is a note" `Quick
      test_gate_improvement_is_note;
    Alcotest.test_case "gate: 1-byte peak rise above 1e6 fails" `Quick
      test_gate_exact_peak;
    Alcotest.test_case "gate: missing benchmark fails" `Quick
      test_gate_missing_benchmark_fails;
  ]
