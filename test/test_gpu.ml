(* Tests for the GPU cost-model executor: copy elision, location
   equality, cost-only vs full-mode counter agreement, the device time
   model, and the perfect-L2 read capping. *)

open Ir
open Ast
module P = Symalg.Poly
module B = Build
module Exec = Gpu.Exec
module Device = Gpu.Device

let c = P.const
let n = P.var "n"
let ctx_n = Symalg.Prover.add_range Symalg.Prover.empty "n" ~lo:(c 1) ()
let farr xs = Value.VArr (Value.of_floats [ Array.length xs ] xs)

(* A program with one deliberate copy (a view manifested with ECopy). *)
let copy_prog =
  B.prog "cp" ~ctx:ctx_n
    ~params:[ pat_elem "n" i64; pat_elem "a" (arr F64 [ n ]) ]
    ~ret:[ arr F64 [ n ] ]
    (fun b ->
      let r = B.bind b "r" (EReverse ("a", 0)) in
      [ Var (B.bind b "m" (ECopy r)) ])

let test_copy_counted () =
  let compiled = Core.Pipeline.compile copy_prog in
  let args = [ Value.VInt 8; farr (Array.init 8 float_of_int) ] in
  let r = Exec.run ~mode:Exec.Full compiled.Core.Pipeline.unopt args in
  Alcotest.(check int) "one copy" 1 r.Exec.counters.Device.copies;
  Alcotest.(check (float 1.0)) "64 bytes" 64.0 r.Exec.counters.Device.copy_bytes;
  (* reversal itself is free: only the copy moves data *)
  match r.Exec.results with
  | [ Value.VArr out ] ->
      Alcotest.(check (list (float 0.)))
        "reversed data" [ 7.; 6.; 5.; 4.; 3.; 2.; 1.; 0. ]
        (Array.to_list (Value.float_data out))
  | _ -> Alcotest.fail "bad result"

let test_views_are_free () =
  let prog =
    B.prog "vw" ~ctx:ctx_n
      ~params:[ pat_elem "n" i64; pat_elem "a" (arr F64 [ n; n ]) ]
      ~ret:[ f64 ]
      (fun b ->
        let t = B.bind b "t" (ETranspose ("a", [ 1; 0 ])) in
        let s =
          B.bind b "s" (ESlice (t, STriplet [ SFix P.one; B.all n ]))
        in
        [ B.index b s [ P.zero ] ])
  in
  let compiled = Core.Pipeline.compile prog in
  let args = [ Value.VInt 4; farr (Array.init 16 float_of_int) ] in
  let r = Exec.run ~mode:Exec.Full compiled.Core.Pipeline.unopt args in
  (* one element read; no copies; no kernels *)
  Alcotest.(check int) "no copies" 0 r.Exec.counters.Device.copies;
  Alcotest.(check int) "no kernels" 0 r.Exec.counters.Device.kernels;
  (* transpose(a)[1][0] = a[0][1] = 1.0 *)
  Alcotest.(check bool) "value through views" true
    (r.Exec.results = [ Value.VFloat 1.0 ])

let test_cost_only_matches_full_bytes () =
  (* on a uniform mapnest, cost-only sampling must reproduce full-mode
     byte counts exactly *)
  let prog =
    B.prog "cm" ~ctx:ctx_n ~params:[ pat_elem "n" i64; pat_elem "a" (arr F64 [ n ]) ]
      ~ret:[ arr F64 [ n ] ]
      (fun b ->
        let iv = Ir.Names.fresh "i" in
        let ys =
          B.mapnest b "ys" [ (iv, n) ] (fun bb ->
              let x = B.index bb "a" [ P.var iv ] in
              [ B.fmul bb x x ])
        in
        [ Var ys ])
  in
  let compiled = Core.Pipeline.compile prog in
  let full =
    Exec.run ~mode:Exec.Full compiled.Core.Pipeline.unopt
      [ Value.VInt 32; farr (Array.init 32 float_of_int) ]
  in
  let cost =
    Exec.run ~mode:Exec.Cost_only compiled.Core.Pipeline.unopt
      [ Value.VInt 32; Value.VArr (Value.shell F64 [ 32 ]) ]
  in
  Alcotest.(check (float 1.))
    "reads agree" full.Exec.counters.Device.kernel_reads
    cost.Exec.counters.Device.kernel_reads;
  Alcotest.(check (float 1.))
    "writes agree" full.Exec.counters.Device.kernel_writes
    cost.Exec.counters.Device.kernel_writes;
  Alcotest.(check (float 1.))
    "flops agree" full.Exec.counters.Device.flops
    cost.Exec.counters.Device.flops

let test_l2_cap () =
  (* a kernel reading the same small array from every thread must be
     charged at most the array's footprint *)
  let prog =
    B.prog "l2" ~ctx:ctx_n
      ~params:[ pat_elem "n" i64; pat_elem "small" (arr F64 [ c 4 ]) ]
      ~ret:[ arr F64 [ n ] ]
      (fun b ->
        let iv = Ir.Names.fresh "i" in
        let ys =
          B.mapnest b "ys" [ (iv, n) ] (fun bb ->
              let a = B.index bb "small" [ P.zero ] in
              let d = B.index bb "small" [ P.one ] in
              [ B.fadd bb a d ])
        in
        [ Var ys ])
  in
  let compiled = Core.Pipeline.compile prog in
  let r =
    Exec.run ~mode:Exec.Full compiled.Core.Pipeline.unopt
      [ Value.VInt 100; farr [| 1.; 2.; 3.; 4. |] ]
  in
  (* 200 reads issued, but the block holds only 4 elements: <= 32 B *)
  Alcotest.(check bool) "reads capped at footprint" true
    (r.Exec.counters.Device.kernel_reads <= 32.0)

let test_time_model_monotone () =
  let c1 = Device.fresh_counters () in
  c1.Device.kernels <- 1;
  c1.Device.kernel_reads <- 1e6;
  let c2 = Device.clone c1 in
  c2.Device.copies <- 1;
  c2.Device.copy_bytes <- 1e6;
  let t1 = Device.time Device.a100 c1 and t2 = Device.time Device.a100 c2 in
  Alcotest.(check bool) "copies cost time" true (t2 > t1);
  Alcotest.(check bool) "A100 faster than MI100" true
    (Device.time Device.a100 c2 < Device.time Device.mi100 c2)

let test_elision_requires_same_location () =
  (* an update whose source was NOT rebased must copy *)
  let prog =
    B.prog "el" ~ctx:ctx_n
      ~params:[ pat_elem "n" i64; pat_elem "a" (arr F64 [ n ]); pat_elem "x" (arr F64 [ n ]) ]
      ~ret:[ arr F64 [ n ] ]
      (fun b ->
        [
          Var
            (B.bind b "r"
               (EUpdate { dst = "a"; slc = STriplet [ B.all n ]; src = SrcArr "x" }));
        ])
  in
  let compiled = Core.Pipeline.compile prog in
  (* x is a parameter: it cannot be rebased, so the copy stays *)
  let r =
    Exec.run ~mode:Exec.Full compiled.Core.Pipeline.opt
      [ Value.VInt 4; farr [| 0.; 0.; 0.; 0. |]; farr [| 1.; 2.; 3.; 4. |] ]
  in
  Alcotest.(check int) "copy performed" 1 r.Exec.counters.Device.copies;
  match r.Exec.results with
  | [ Value.VArr out ] ->
      Alcotest.(check (list (float 0.))) "copied data" [ 1.; 2.; 3.; 4. ]
        (Array.to_list (Value.float_data out))
  | _ -> Alcotest.fail "bad result"

(* A reshape of a transposed (column-major) matrix cannot be expressed
   with one LMAD: the executor must unrank through the chained index
   function (Fig. 3's run-time divisions). *)
let test_multi_lmad_execution () =
  let prog =
    B.prog "ml" ~ctx:ctx_n
      ~params:[ pat_elem "n" i64; pat_elem "a" (arr F64 [ n; n ]) ]
      ~ret:[ arr F64 [ P.mul n n ] ]
      (fun b ->
        let t = B.bind b "t" (ETranspose ("a", [ 1; 0 ])) in
        [ Var (B.bind b "flat" (EReshape (t, [ P.mul n n ]))) ])
  in
  let compiled = Core.Pipeline.compile prog in
  let args =
    [ Value.VInt 3; Value.VArr (Value.of_floats [ 3; 3 ] (Array.init 9 float_of_int)) ]
  in
  let expect = Interp.run compiled.Core.Pipeline.source args in
  let r = Exec.run ~mode:Exec.Full compiled.Core.Pipeline.unopt args in
  Alcotest.(check bool) "unranked reads agree with interpreter" true
    (List.for_all2 Value.approx_equal expect r.Exec.results);
  (* the view itself must still be free *)
  Alcotest.(check int) "no copies" 0 r.Exec.counters.Device.copies

(* Simpson-sampled loops (cost-only, bound >= 24) must reproduce the
   exact counters of a full execution when per-iteration costs are (at
   most) quadratic in the index - NW's wavefront is linear. *)
let test_simpson_loop_sampling () =
  let q = 26 and b = 2 in
  let compiled = Core.Pipeline.compile Benchsuite.Nw.prog in
  let full =
    Exec.run ~mode:Exec.Full compiled.Core.Pipeline.unopt
      (Benchsuite.Nw.small_args ~q ~b)
  in
  let cost =
    Exec.run ~mode:Exec.Cost_only compiled.Core.Pipeline.unopt
      (Benchsuite.Nw.args ~q ~b ~penalty:10.0 ~shell:true)
  in
  let fc = full.Exec.counters and cc = cost.Exec.counters in
  Alcotest.(check int) "kernels agree" fc.Device.kernels cc.Device.kernels;
  Alcotest.(check int) "copies agree" fc.Device.copies cc.Device.copies;
  let close msg a bexp =
    let rel = Float.abs (a -. bexp) /. Float.max 1.0 bexp in
    if rel > 0.02 then Alcotest.failf "%s: %g vs %g (%.1f%%)" msg a bexp (100. *. rel)
  in
  close "copy bytes" cc.Device.copy_bytes fc.Device.copy_bytes;
  close "kernel writes" cc.Device.kernel_writes fc.Device.kernel_writes;
  close "flops" cc.Device.flops fc.Device.flops

(* ---------------------------------------------------------------- *)
(* Pinned behaviour: exact Full-mode counters and results            *)
(* ---------------------------------------------------------------- *)

(* Every counter as an exact float ([%h]), and a digest of the results
   with floats in hex, so a change in any bit shows. *)
let counters_line (c : Device.counters) =
  Printf.sprintf
    "k=%d kr=%h kw=%h fl=%h cp=%d cb=%h ce=%d eb=%h al=%d ab=%h aa=%d \
     arb=%h sa=%d sb=%h ph=%d pm=%d fr=%d pk=%h lv=%h"
    c.Device.kernels c.kernel_reads c.kernel_writes c.flops c.copies
    c.copy_bytes c.copies_elided c.elided_bytes c.allocs c.alloc_bytes
    c.arena_allocs c.arena_bytes c.scratch_allocs c.scratch_bytes
    c.pool_hits c.pool_misses c.frees c.peak_bytes c.live_bytes

let results_digest (vs : Value.t list) =
  let b = Buffer.create 256 in
  let add_data = function
    | Value.DF d -> Array.iter (fun x -> Printf.bprintf b "%h," x) d
    | Value.DI d -> Array.iter (fun x -> Printf.bprintf b "%d," x) d
    | Value.DB d -> Array.iter (fun x -> Printf.bprintf b "%b," x) d
  in
  List.iter
    (function
      | Value.VInt i -> Printf.bprintf b "i%d;" i
      | Value.VFloat f -> Printf.bprintf b "f%h;" f
      | Value.VBool x -> Printf.bprintf b "b%b;" x
      | Value.VMem m -> Printf.bprintf b "m%d;" m
      | Value.VArr a ->
          Printf.bprintf b "a[%s]:"
            (String.concat "x" (List.map string_of_int a.Value.shape));
          add_data a.Value.data;
          Buffer.add_char b ';')
    vs;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* The seven benchmarks at the sizes [repro validate] uses. *)
let small_benches =
  [
    ("nw", Benchsuite.Nw.prog, fun () -> Benchsuite.Nw.small_args ~q:3 ~b:4);
    ("lud", Benchsuite.Lud.prog, fun () -> Benchsuite.Lud.small_args ~q:3 ~b:4);
    ( "hotspot",
      Benchsuite.Hotspot.prog,
      fun () -> Benchsuite.Hotspot.small_args ~n:16 ~steps:3 );
    ("lbm", Benchsuite.Lbm.prog, fun () -> Benchsuite.Lbm.small_args ~n:8 ~steps:3);
    ( "optionpricing",
      Benchsuite.Option_pricing.prog,
      fun () -> Benchsuite.Option_pricing.small_args ~npaths:64 ~nsteps:16 );
    ( "locvolcalib",
      Benchsuite.Locvolcalib.prog,
      fun () -> Benchsuite.Locvolcalib.small_args ~numo:6 ~numx:12 ~numt:4 );
    ( "nn",
      Benchsuite.Nn.prog,
      fun () -> Benchsuite.Nn.small_args ~nrec:100 ~nbatch:4 ~bsz:8 );
  ]

(* Recorded with the string-keyed-environment executor this one
   replaced; the slot-resolved executor must reproduce every bit. *)
let golden =
  [
    ( "nw/unopt",
      "k=5 kr=0x1.17p+11 kw=0x1.2p+11 fl=0x1.bp+10 cp=5 cb=0x1.2p+10 \
       ce=0 eb=0x0p+0 al=5 ab=0x1.2p+10 aa=0 arb=0x0p+0 sa=9 \
       sb=0x1.2p+10 ph=2 pm=3 fr=0 pk=0x1.4p+10 lv=0x1.2p+10",
      "07cd5bdcc4aff206690d9206af697afe" );
    ( "nw/opt",
      "k=5 kr=0x1.0ep+10 kw=0x1.2p+10 fl=0x1.bp+10 cp=0 cb=0x0p+0 \
       ce=14 eb=0x1.2p+11 al=0 ab=0x0p+0 aa=0 arb=0x0p+0 sa=9 \
       sb=0x1.2p+10 ph=0 pm=0 fr=0 pk=0x1.8p+8 lv=0x0p+0",
      "07cd5bdcc4aff206690d9206af697afe" );
    ( "nw/reuse",
      "k=5 kr=0x1.0ep+10 kw=0x1.2p+10 fl=0x1.bp+10 cp=0 cb=0x0p+0 \
       ce=14 eb=0x1.2p+11 al=0 ab=0x0p+0 aa=0 arb=0x0p+0 sa=0 \
       sb=0x0p+0 ph=0 pm=0 fr=0 pk=0x0p+0 lv=0x0p+0",
      "07cd5bdcc4aff206690d9206af697afe" );
    ( "nw/pack",
      "k=5 kr=0x1.0ep+10 kw=0x1.2p+10 fl=0x1.bp+10 cp=0 cb=0x0p+0 \
       ce=14 eb=0x1.2p+11 al=0 ab=0x0p+0 aa=0 arb=0x0p+0 sa=0 \
       sb=0x0p+0 ph=0 pm=0 fr=0 pk=0x0p+0 lv=0x0p+0",
      "07cd5bdcc4aff206690d9206af697afe" );
    ( "lud/unopt",
      "k=9 kr=0x1.ap+12 kw=0x1.56p+12 fl=0x1.0d8p+10 cp=9 \
       cb=0x1.cp+10 ce=0 eb=0x0p+0 al=9 ab=0x1.cp+10 aa=0 arb=0x0p+0 \
       sa=14 sb=0x1.cp+10 ph=3 pm=6 fr=0 pk=0x1.ep+10 lv=0x1.cp+10",
      "ceda45f0f1a18de5969bd08c7dab8427" );
    ( "lud/opt",
      "k=9 kr=0x1.48p+12 kw=0x1.fcp+11 fl=0x1.0d8p+10 cp=2 \
       cb=0x1.8p+8 ce=18 eb=0x1.6p+11 al=2 ab=0x1.8p+8 aa=0 \
       arb=0x0p+0 sa=14 sb=0x1.cp+10 ph=0 pm=2 fr=0 pk=0x1.8p+9 \
       lv=0x1.8p+8",
      "ceda45f0f1a18de5969bd08c7dab8427" );
    ( "lud/reuse",
      "k=9 kr=0x1.5p+12 kw=0x1.fcp+11 fl=0x1.0d8p+10 cp=2 cb=0x1.8p+8 \
       ce=18 eb=0x1.6p+11 al=1 ab=0x1p+8 aa=0 arb=0x0p+0 sa=3 \
       sb=0x1.8p+8 ph=0 pm=1 fr=0 pk=0x1.8p+8 lv=0x1p+8",
      "ceda45f0f1a18de5969bd08c7dab8427" );
    ( "lud/pack",
      "k=9 kr=0x1.5p+12 kw=0x1.fcp+11 fl=0x1.0d8p+10 cp=2 cb=0x1.8p+8 \
       ce=18 eb=0x1.6p+11 al=1 ab=0x1p+8 aa=0 arb=0x0p+0 sa=3 \
       sb=0x1.8p+8 ph=0 pm=1 fr=0 pk=0x1.8p+8 lv=0x1p+8",
      "ceda45f0f1a18de5969bd08c7dab8427" );
    ( "hotspot/unopt",
      "k=9 kr=0x1.f8p+13 kw=0x1.8p+12 fl=0x1.08p+13 cp=9 cb=0x1.8p+12 \
       ce=0 eb=0x0p+0 al=12 ab=0x1.8p+13 aa=0 arb=0x0p+0 sa=0 \
       sb=0x0p+0 ph=7 pm=5 fr=0 pk=0x1.8p+13 lv=0x1.8p+13",
      "3d83e4587574e65baede70e612d3ad3f" );
    ( "hotspot/opt",
      "k=9 kr=0x1.f8p+13 kw=0x1.8p+12 fl=0x1.08p+13 cp=0 cb=0x0p+0 \
       ce=9 eb=0x1.8p+12 al=3 ab=0x1.8p+12 aa=0 arb=0x0p+0 sa=0 \
       sb=0x0p+0 ph=1 pm=2 fr=0 pk=0x1.8p+12 lv=0x1.8p+12",
      "3d83e4587574e65baede70e612d3ad3f" );
    ( "hotspot/reuse",
      "k=9 kr=0x1.f8p+13 kw=0x1.8p+12 fl=0x1.08p+13 cp=0 cb=0x0p+0 \
       ce=9 eb=0x1.8p+12 al=1 ab=0x1p+11 aa=0 arb=0x0p+0 sa=0 \
       sb=0x0p+0 ph=0 pm=1 fr=0 pk=0x1p+11 lv=0x1p+11",
      "3d83e4587574e65baede70e612d3ad3f" );
    ( "hotspot/pack",
      "k=9 kr=0x1.f8p+13 kw=0x1.8p+12 fl=0x1.08p+13 cp=0 cb=0x0p+0 \
       ce=9 eb=0x1.8p+12 al=1 ab=0x1p+11 aa=0 arb=0x0p+0 sa=0 \
       sb=0x0p+0 ph=0 pm=1 fr=0 pk=0x1p+11 lv=0x1p+11",
      "3d83e4587574e65baede70e612d3ad3f" );
    ( "lbm/unopt",
      "k=3 kr=0x1.ba2p+14 kw=0x1.44p+15 fl=0x1.29p+14 cp=0 cb=0x0p+0 \
       ce=0 eb=0x0p+0 al=3 ab=0x1.bp+13 aa=0 arb=0x0p+0 sa=384 \
       sb=0x1.bp+14 ph=1 pm=2 fr=0 pk=0x1.68p+14 lv=0x1.bp+13",
      "dfc925655e691749b90925094b0065f0" );
    ( "lbm/opt",
      "k=3 kr=0x1.c44p+13 kw=0x1.bp+14 fl=0x1.29p+14 cp=0 cb=0x0p+0 \
       ce=192 eb=0x1.bp+13 al=3 ab=0x1.bp+13 aa=0 arb=0x0p+0 sa=384 \
       sb=0x1.bp+14 ph=1 pm=2 fr=0 pk=0x1.68p+14 lv=0x1.bp+13",
      "dfc925655e691749b90925094b0065f0" );
    ( "lbm/reuse",
      "k=3 kr=0x1.c44p+13 kw=0x1.bp+14 fl=0x1.29p+14 cp=0 cb=0x0p+0 \
       ce=192 eb=0x1.bp+13 al=1 ab=0x1.2p+12 aa=0 arb=0x0p+0 sa=192 \
       sb=0x1.bp+13 ph=0 pm=1 fr=0 pk=0x1.2p+13 lv=0x1.2p+12",
      "dfc925655e691749b90925094b0065f0" );
    ( "lbm/pack",
      "k=3 kr=0x1.c44p+13 kw=0x1.bp+14 fl=0x1.29p+14 cp=0 cb=0x0p+0 \
       ce=192 eb=0x1.bp+13 al=1 ab=0x1.2p+12 aa=0 arb=0x0p+0 sa=192 \
       sb=0x1.bp+13 ph=0 pm=1 fr=0 pk=0x1.2p+13 lv=0x1.2p+12",
      "dfc925655e691749b90925094b0065f0" );
    ( "optionpricing/unopt",
      "k=3 kr=0x1.08p+14 kw=0x1.08p+14 fl=0x1.60cp+16 cp=0 cb=0x0p+0 \
       ce=0 eb=0x0p+0 al=2 ab=0x1.1p+13 aa=0 arb=0x0p+0 sa=64 \
       sb=0x1p+13 ph=0 pm=2 fr=0 pk=0x1.08p+14 lv=0x1.1p+13",
      "2cdd94797d3f5b989813d19515930422" );
    ( "optionpricing/opt",
      "k=3 kr=0x1.1p+13 kw=0x1.1p+13 fl=0x1.60cp+16 cp=0 cb=0x0p+0 \
       ce=64 eb=0x1p+13 al=2 ab=0x1.1p+13 aa=0 arb=0x0p+0 sa=64 \
       sb=0x1p+13 ph=0 pm=2 fr=0 pk=0x1.08p+14 lv=0x1.1p+13",
      "2cdd94797d3f5b989813d19515930422" );
    ( "optionpricing/reuse",
      "k=3 kr=0x1.1p+13 kw=0x1.1p+13 fl=0x1.60cp+16 cp=0 cb=0x0p+0 \
       ce=64 eb=0x1p+13 al=2 ab=0x1.1p+13 aa=0 arb=0x0p+0 sa=0 \
       sb=0x0p+0 ph=0 pm=2 fr=0 pk=0x1.1p+13 lv=0x1.1p+13",
      "2cdd94797d3f5b989813d19515930422" );
    ( "optionpricing/pack",
      "k=3 kr=0x1.1p+13 kw=0x1.1p+13 fl=0x1.60cp+16 cp=0 cb=0x0p+0 \
       ce=64 eb=0x1p+13 al=1 ab=0x1.1p+13 aa=1 arb=0x1.1p+13 sa=0 \
       sb=0x0p+0 ph=0 pm=1 fr=0 pk=0x1.1p+13 lv=0x1.1p+13",
      "2cdd94797d3f5b989813d19515930422" );
    ( "locvolcalib/unopt",
      "k=1 kr=0x1.2p+9 kw=0x1.f8p+12 fl=0x1.5cp+11 cp=0 cb=0x0p+0 \
       ce=0 eb=0x0p+0 al=1 ab=0x1.2p+9 aa=0 arb=0x0p+0 sa=78 \
       sb=0x1.d4p+12 ph=0 pm=1 fr=0 pk=0x1.f8p+12 lv=0x1.2p+9",
      "a2ff64fdefe4c58e1f1b8dc881c0315d" );
    ( "locvolcalib/opt",
      "k=1 kr=0x0p+0 kw=0x1.d4p+12 fl=0x1.5cp+11 cp=0 cb=0x0p+0 ce=6 \
       eb=0x1.2p+9 al=1 ab=0x1.2p+9 aa=0 arb=0x0p+0 sa=78 \
       sb=0x1.d4p+12 ph=0 pm=1 fr=0 pk=0x1.f8p+12 lv=0x1.2p+9",
      "a2ff64fdefe4c58e1f1b8dc881c0315d" );
    ( "locvolcalib/reuse",
      "k=1 kr=0x0p+0 kw=0x1.d4p+12 fl=0x1.5cp+11 cp=0 cb=0x0p+0 ce=6 \
       eb=0x1.2p+9 al=1 ab=0x1.2p+9 aa=0 arb=0x0p+0 sa=48 \
       sb=0x1.2p+12 ph=0 pm=1 fr=0 pk=0x1.44p+12 lv=0x1.2p+9",
      "a2ff64fdefe4c58e1f1b8dc881c0315d" );
    ( "locvolcalib/pack",
      "k=1 kr=0x0p+0 kw=0x1.d4p+12 fl=0x1.5cp+11 cp=0 cb=0x0p+0 ce=6 \
       eb=0x1.2p+9 al=1 ab=0x1.bp+10 aa=1 arb=0x1.bp+10 sa=0 \
       sb=0x0p+0 ph=0 pm=1 fr=0 pk=0x1.bp+10 lv=0x1.bp+10",
      "a2ff64fdefe4c58e1f1b8dc881c0315d" );
    ( "nn/unopt",
      "k=4 kr=0x1.bp+12 kw=0x1p+8 fl=0x1.2cp+14 cp=4 cb=0x1p+8 ce=0 \
       eb=0x0p+0 al=5 ab=0x1p+9 aa=0 arb=0x0p+0 sa=0 sb=0x0p+0 ph=3 \
       pm=2 fr=0 pk=0x1p+9 lv=0x1p+9",
      "811b9441aa5ce8fc9f80d0983dab0add" );
    ( "nn/opt",
      "k=4 kr=0x1.bp+12 kw=0x1p+8 fl=0x1.2cp+14 cp=0 cb=0x0p+0 ce=4 \
       eb=0x1p+8 al=1 ab=0x1p+8 aa=0 arb=0x0p+0 sa=0 sb=0x0p+0 ph=0 \
       pm=1 fr=0 pk=0x1p+8 lv=0x1p+8",
      "811b9441aa5ce8fc9f80d0983dab0add" );
    ( "nn/reuse",
      "k=4 kr=0x1.bp+12 kw=0x1p+8 fl=0x1.2cp+14 cp=0 cb=0x0p+0 ce=4 \
       eb=0x1p+8 al=1 ab=0x1p+8 aa=0 arb=0x0p+0 sa=0 sb=0x0p+0 ph=0 \
       pm=1 fr=0 pk=0x1p+8 lv=0x1p+8",
      "811b9441aa5ce8fc9f80d0983dab0add" );
    ( "nn/pack",
      "k=4 kr=0x1.bp+12 kw=0x1p+8 fl=0x1.2cp+14 cp=0 cb=0x0p+0 ce=4 \
       eb=0x1p+8 al=1 ab=0x1p+8 aa=0 arb=0x0p+0 sa=0 sb=0x0p+0 ph=0 \
       pm=1 fr=0 pk=0x1p+8 lv=0x1p+8",
      "811b9441aa5ce8fc9f80d0983dab0add" );
  ]

let test_full_mode_golden () =
  List.iter
    (fun (name, prog, args) ->
      let compiled = Core.Pipeline.compile prog in
      List.iter
        (fun (v, p) ->
          let key = name ^ "/" ^ v in
          let r = Exec.run ~mode:Exec.Full p (args ()) in
          match List.find_opt (fun (k, _, _) -> k = key) golden with
          | None -> Alcotest.failf "%s: no golden record" key
          | Some (_, counters, digest) ->
              Alcotest.(check string)
                (key ^ " counters") counters
                (counters_line r.Exec.counters);
              Alcotest.(check string)
                (key ^ " results") digest
                (results_digest r.Exec.results))
        (Core.Pipeline.variants compiled))
    small_benches

(* ---------------------------------------------------------------- *)
(* Scoping: slots follow lexical binders                             *)
(* ---------------------------------------------------------------- *)

let mem blk = Some { block = blk; ixfn = Lmads.Ixfn.row_major [ n ] }
let f64n = arr F64 [ n ]

(* Built directly, with hand-written memory annotations:
   - the kernel body binds [a], shadowing the outer array it reads
     first, and [y], shadowing an outer array it never reads;
   - the loop body and the [if]'s true arm rebind the outer [s]. *)
let scope_prog =
  let kernel =
    block
      [
        stm [ pat_elem "a" f64 ] (EIndex ("a", [ P.var "i" ]));
        stm [ pat_elem "y" f64 ] (EBin (Mul, Var "a", Float 2.0));
        stm [ pat_elem "t" f64 ] (EBin (Add, Var "y", Var "s"));
      ]
      [ Var "t" ]
  in
  {
    name = "scope";
    params =
      [
        pat_elem "n" i64;
        pat_elem "c" boolt;
        pat_elem ?mem:(mem "a_mem") "a" f64n;
      ];
    ctx = Symalg.Prover.empty;
    ret = [ f64n; f64n; f64; f64; f64 ];
    body =
      block
        [
          stm [ pat_elem "s" f64 ] (EAtom (Float 0.5));
          stm [ pat_elem "y_mem" TMem ] (EAlloc n);
          stm [ pat_elem ?mem:(mem "y_mem") "y" f64n ]
            (EReplicate ([ n ], Float 3.0));
          stm [ pat_elem "x_mem" TMem ] (EAlloc n);
          stm
            [ pat_elem ?mem:(mem "x_mem") "x" f64n ]
            (EMap { nest = [ ("i", n) ]; body = kernel });
          stm [ pat_elem "r" f64 ]
            (ELoop
               {
                 params = [ (pat_elem "acc" f64, Float 0.0) ];
                 var = "j";
                 bound = c 3;
                 body =
                   block
                     [
                       stm [ pat_elem "s" f64 ]
                         (EBin (Add, Var "acc", Float 1.0));
                     ]
                     [ Var "s" ];
               });
          stm [ pat_elem "k" f64 ]
            (EIf
               {
                 cond = Var "c";
                 tb =
                   block
                     [ stm [ pat_elem "s" f64 ] (EAtom (Float 5.0)) ]
                     [ Var "s" ];
                 fb = block [] [ Var "s" ];
               });
        ]
        [ Var "x"; Var "y"; Var "s"; Var "r"; Var "k" ];
  }

let scope_args cond =
  [ Value.VInt 4; Value.VBool cond; farr [| 1.; 2.; 3.; 4. |] ]

let test_scoping () =
  List.iter
    (fun cond ->
      let args = scope_args cond in
      let r = Exec.run ~trace:true scope_prog args in
      Alcotest.(check bool)
        (Printf.sprintf "c=%b: results equal the interpreter's" cond)
        true
        (List.for_all2 (Value.approx_equal ~eps:0.)
           (Interp.run scope_prog args) r.Exec.results);
      (* the declared reads resolve every name the body mentions in the
         launch scope: the shadowed outer [a] and [y] both count *)
      let t = Option.get r.Exec.trace in
      Alcotest.(check (list string))
        "declared reads of kernel x"
        [ "a@blk1:0 + {4:1}"; "y@blk2:0 + {4:1}" ]
        (List.concat_map
           (fun k ->
             if k.Core.Trace.klabel = "x" then
               List.map (Fmt.to_to_string Core.Trace.pp_footprint)
                 k.Core.Trace.declared_reads
             else [])
           (Core.Trace.kernels t)))
    [ true; false ];
  (* an unbound name is an error only when it is executed *)
  let unbound =
    {
      name = "unbound";
      params = [ pat_elem "c" boolt ];
      ctx = Symalg.Prover.empty;
      ret = [ i64 ];
      body =
        block
          [
            stm [ pat_elem "r" i64 ]
              (EIf
                 {
                   cond = Var "c";
                   tb = block [] [ Int 1 ];
                   fb =
                     block
                       [ stm [ pat_elem "z" i64 ] (EIdx (P.var "nowhere")) ]
                       [ Var "z" ];
                 });
          ]
          [ Var "r" ];
    }
  in
  Alcotest.(check bool) "unexecuted unbound name" true
    ((Exec.run unbound [ Value.VBool true ]).Exec.results = [ Value.VInt 1 ]);
  match Exec.run unbound [ Value.VBool false ] with
  | _ -> Alcotest.fail "executing an unbound name must raise"
  | exception Exec.Exec_error _ -> ()

(* Block ids are numbered per run: the same program traced twice in one
   process gives the same trace, whatever ran before. *)
let test_trace_repeatable () =
  let compiled = Core.Pipeline.compile Benchsuite.Nw.prog in
  let json () =
    let r =
      Exec.run ~trace:true compiled.Core.Pipeline.opt
        (Benchsuite.Nw.small_args ~q:3 ~b:4)
    in
    Core.Json.to_string (Core.Trace.to_json (Option.get r.Exec.trace))
  in
  let first = json () in
  Alcotest.(check string) "second run's trace" first (json ())

let tests =
  [
    Alcotest.test_case "multi-LMAD execution" `Quick test_multi_lmad_execution;
    Alcotest.test_case "Simpson loop sampling = full" `Quick
      test_simpson_loop_sampling;
    Alcotest.test_case "copies counted and performed" `Quick test_copy_counted;
    Alcotest.test_case "views are free" `Quick test_views_are_free;
    Alcotest.test_case "cost-only = full (uniform kernel)" `Quick
      test_cost_only_matches_full_bytes;
    Alcotest.test_case "perfect-L2 read cap" `Quick test_l2_cap;
    Alcotest.test_case "time model monotone" `Quick test_time_model_monotone;
    Alcotest.test_case "elision requires same location" `Quick
      test_elision_requires_same_location;
    Alcotest.test_case "full-mode counters and results pinned" `Quick
      test_full_mode_golden;
    Alcotest.test_case "slots follow lexical scope" `Quick test_scoping;
    Alcotest.test_case "traces repeat within one process" `Quick
      test_trace_repeatable;
  ]
