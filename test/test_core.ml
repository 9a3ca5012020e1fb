(* Tests for the memory passes: memory introduction (section IV),
   allocation hoisting, last-use analysis, and above all the
   short-circuiting scenarios of the paper's figures:

   - Fig. 1  left fires / right (data-dependent) must not;
   - Fig. 4a trivial concatenation;
   - Fig. 4b use of the destination between creation and circuit point;
   - Fig. 5a if-producing candidates;
   - Fig. 6a transitive chaining through a concat;
   - Fig. 6b mapnest per-thread results;
   - change-of-layout chains (invertible transpose vs non-invertible
     slice);
   - semantic preservation: every scenario is executed in full mode and
     compared against the reference interpreter. *)

open Ir
open Ast
module P = Symalg.Poly
module Pr = Symalg.Prover
module B = Build
module Sc = Core.Shortcircuit
module Exec = Gpu.Exec

let c = P.const
let n = P.var "n"
let ctx_n = Pr.add_range Pr.empty "n" ~lo:(c 1) ()

let farr xs = Value.VArr (Value.of_floats [ Array.length xs ] xs)

let farr2 r k xs = Value.VArr (Value.of_floats [ r; k ] xs)

(* Compile, validate semantics in full mode, and return the pass
   statistics plus the optimized run's counters. *)
let scenario ?(args = []) prog =
  let compiled = Core.Pipeline.compile prog in
  let stats = compiled.Core.Pipeline.stats in
  if args = [] then (stats, None)
  else begin
    let expect = Interp.run compiled.Core.Pipeline.source args in
    let ru = Exec.run ~mode:Exec.Full compiled.Core.Pipeline.unopt args in
    let ro = Exec.run ~mode:Exec.Full compiled.Core.Pipeline.opt args in
    Alcotest.(check bool)
      "unopt preserves semantics" true
      (List.for_all2 (Value.approx_equal ~eps:1e-9) expect ru.Exec.results);
    Alcotest.(check bool)
      "opt preserves semantics" true
      (List.for_all2 (Value.approx_equal ~eps:1e-9) expect ro.Exec.results);
    (stats, Some (ru.Exec.counters, ro.Exec.counters))
  end

let check_fired name expected (stats : Sc.stats) =
  Alcotest.(check bool) name expected (stats.Sc.succeeded > 0)

(* ---------------------------------------------------------------- *)
(* Fig. 1                                                            *)
(* ---------------------------------------------------------------- *)

let diag_slice =
  SLmad (Lmads.Lmad.make P.zero [ Lmads.Lmad.dim n (P.add n P.one) ])

let test_fig1_left () =
  let prog =
    B.prog "f1l" ~ctx:ctx_n
      ~params:[ pat_elem "n" i64; pat_elem "a" (arr F64 [ P.mul n n ]) ]
      ~ret:[ arr F64 [ P.mul n n ] ]
      (fun b ->
        let x =
          B.mapnest b "x" [ ("i", n) ] (fun bb ->
              let i = P.var "i" in
              let d = B.index bb "a" [ P.mul i (P.add n P.one) ] in
              let r = B.index bb "a" [ i ] in
              [ B.fadd bb d r ])
        in
        [ Var (B.bind b "a2" (EUpdate { dst = "a"; slc = diag_slice; src = SrcArr x })) ])
  in
  let nv = 6 in
  let stats, counters =
    scenario
      ~args:[ Value.VInt nv; farr (Array.init (nv * nv) float_of_int) ]
      prog
  in
  check_fired "Fig. 1 left fires" true stats;
  match counters with
  | Some (u, o) ->
      Alcotest.(check bool) "unopt copies" true (u.Gpu.Device.copies > 0);
      Alcotest.(check int) "opt copies" 0 o.Gpu.Device.copies
  | None -> ()

let test_fig1_right () =
  let prog =
    B.prog "f1r" ~ctx:ctx_n
      ~params:
        [
          pat_elem "n" i64;
          pat_elem "a" (arr F64 [ P.mul n n ]);
          pat_elem "js" (arr I64 [ n ]);
        ]
      ~ret:[ arr F64 [ P.mul n n ] ]
      (fun b ->
        let x =
          B.mapnest b "x" [ ("i", n) ] (fun bb ->
              let i = P.var "i" in
              let d = B.index bb "a" [ P.mul i (P.add n P.one) ] in
              let j = B.bind bb "j" (EIndex ("js", [ i ])) in
              let o = B.index bb "a" [ P.mul (P.var j) (P.add n P.one) ] in
              [ B.fadd bb d o ])
        in
        [ Var (B.bind b "a2" (EUpdate { dst = "a"; slc = diag_slice; src = SrcArr x })) ])
  in
  let nv = 6 in
  let js = Value.VArr (Value.of_ints [ nv ] (Array.init nv (fun i -> (i + 2) mod nv))) in
  let stats, _ =
    scenario
      ~args:[ Value.VInt nv; farr (Array.init (nv * nv) float_of_int); js ]
      prog
  in
  check_fired "Fig. 1 right must NOT fire" false stats

(* ---------------------------------------------------------------- *)
(* Fig. 4a: trivial concatenation                                    *)
(* ---------------------------------------------------------------- *)

let fill b name cnt seed =
  B.mapnest b name [ (Ir.Names.fresh "i", cnt) ] (fun bb ->
      [ B.fadd bb (Float seed) (Float 0.0) ])

let test_fig4a_concat () =
  let m = P.var "m" in
  let prog =
    B.prog "f4a"
      ~ctx:(Pr.add_range ctx_n "m" ~lo:(c 1) ())
      ~params:[ pat_elem "n" i64; pat_elem "m" i64 ]
      ~ret:[ arr F64 [ P.add m n ] ]
      (fun b ->
        let as_ = fill b "as" m 1.0 in
        let bs = fill b "bs" n 2.0 in
        [ Var (B.bind b "xss" (EConcat [ as_; bs ])) ])
  in
  let stats, counters = scenario ~args:[ Value.VInt 5; Value.VInt 3 ] prog in
  Alcotest.(check int) "both operands circuit" 2 stats.Sc.succeeded;
  match counters with
  | Some (_, o) ->
      Alcotest.(check int) "concat free" 0 o.Gpu.Device.copies
  | None -> ()

let test_concat_same_array_twice () =
  (* footnote 17: concat bs bs cannot be fully optimized - only one
     occurrence can be the last use *)
  let prog =
    B.prog "f4a2" ~ctx:ctx_n ~params:[ pat_elem "n" i64 ]
      ~ret:[ arr F64 [ P.scale 2 n ] ]
      (fun b ->
        let bs = fill b "bs" n 2.0 in
        [ Var (B.bind b "xss" (EConcat [ bs; bs ])) ])
  in
  let _, counters = scenario ~args:[ Value.VInt 4 ] prog in
  match counters with
  | Some (_, o) ->
      Alcotest.(check bool) "at least one copy remains" true
        (o.Gpu.Device.copies >= 1)
  | None -> ()

(* ---------------------------------------------------------------- *)
(* Fig. 4b: destination used between creation and circuit point      *)
(* ---------------------------------------------------------------- *)

(* xss is READ from a region the candidate writes: must not fire. *)
let test_fig4b_conflicting_use () =
  let prog =
    B.prog "f4b" ~ctx:ctx_n
      ~params:[ pat_elem "n" i64; pat_elem "xss" (arr F64 [ P.scale 2 n ]) ]
      ~ret:[ f64; arr F64 [ P.scale 2 n ] ]
      (fun b ->
        let bs = fill b "bs" n 7.0 in
        (* use of xss AT a location bs will overwrite, after bs exists *)
        let u = B.index b "xss" [ n ] in
        let upd =
          B.bind b "xss2"
            (EUpdate
               {
                 dst = "xss";
                 slc = STriplet [ SRange { start = n; len = n; step = P.one } ];
                 src = SrcArr bs;
               })
        in
        [ u; Var upd ])
  in
  let stats, _ =
    scenario ~args:[ Value.VInt 4; farr (Array.init 8 float_of_int) ] prog
  in
  check_fired "conflicting use blocks the circuit" false stats

(* A use of a DISJOINT region of xss is fine (Fig. 4b line 2). *)
let test_fig4b_disjoint_use () =
  let prog =
    B.prog "f4b2" ~ctx:ctx_n
      ~params:[ pat_elem "n" i64; pat_elem "xss" (arr F64 [ P.scale 2 n ]) ]
      ~ret:[ f64; arr F64 [ P.scale 2 n ] ]
      (fun b ->
        let bs = fill b "bs" n 7.0 in
        (* reads the FIRST half; bs goes to the second *)
        let u = B.index b "xss" [ P.zero ] in
        let upd =
          B.bind b "xss2"
            (EUpdate
               {
                 dst = "xss";
                 slc = STriplet [ SRange { start = n; len = n; step = P.one } ];
                 src = SrcArr bs;
               })
        in
        [ u; Var upd ])
  in
  let stats, _ =
    scenario ~args:[ Value.VInt 4; farr (Array.init 8 float_of_int) ] prog
  in
  check_fired "disjoint use permits the circuit" true stats

(* ---------------------------------------------------------------- *)
(* Change-of-layout chains (Fig. 4b lines 4-5)                       *)
(* ---------------------------------------------------------------- *)

let test_invertible_transpose_chain () =
  (* bs = transpose as, update uses bs: as must be rebased through the
     inverse permutation *)
  let prog =
    B.prog "chain" ~ctx:ctx_n
      ~params:[ pat_elem "n" i64; pat_elem "xss" (arr F64 [ n; n ]) ]
      ~ret:[ arr F64 [ n; n ] ]
      (fun b ->
        let iv = Ir.Names.fresh "i" and jv = Ir.Names.fresh "j" in
        let as_ =
          B.mapnest b "as" [ (iv, n); (jv, n) ] (fun bb ->
              [
                B.fadd bb
                  (B.unop bb ToF64 (B.idx bb (P.var iv)))
                  (B.unop bb ToF64 (B.idx bb (P.scale 10 (P.var jv))));
              ])
        in
        let bs = B.bind b "bs" (ETranspose (as_, [ 1; 0 ])) in
        [
          Var
            (B.bind b "xss2"
               (EUpdate
                  {
                    dst = "xss";
                    slc = STriplet [ B.all n; B.all n ];
                    src = SrcArr bs;
                  }));
        ])
  in
  let stats, counters =
    scenario ~args:[ Value.VInt 4; farr2 4 4 (Array.init 16 float_of_int) ] prog
  in
  check_fired "transpose chain fires" true stats;
  match counters with
  | Some (_, o) -> Alcotest.(check int) "no copies" 0 o.Gpu.Device.copies
  | None -> ()

let test_noninvertible_slice_chain () =
  (* bs = as[0:n:2] (a strided slice of a larger fresh array): the
     inverse does not exist, the circuit must fail *)
  let prog =
    B.prog "slc" ~ctx:ctx_n
      ~params:[ pat_elem "n" i64; pat_elem "xss" (arr F64 [ n ]) ]
      ~ret:[ arr F64 [ n ] ]
      (fun b ->
        let as_ = fill b "as" (P.scale 2 n) 3.0 in
        let bs =
          B.bind b "bs"
            (ESlice
               (as_, STriplet [ SRange { start = P.zero; len = n; step = c 2 } ]))
        in
        [
          Var
            (B.bind b "xss2"
               (EUpdate
                  { dst = "xss"; slc = STriplet [ B.all n ]; src = SrcArr bs }));
        ])
  in
  let stats, _ =
    scenario ~args:[ Value.VInt 4; farr (Array.init 4 float_of_int) ] prog
  in
  check_fired "slice chain must NOT fire" false stats

(* ---------------------------------------------------------------- *)
(* Fig. 5a: candidates produced by if                                *)
(* ---------------------------------------------------------------- *)

let test_fig5a_if () =
  let prog =
    B.prog "f5a" ~ctx:ctx_n
      ~params:
        [
          pat_elem "n" i64;
          pat_elem "c" boolt;
          pat_elem "xss" (arr F64 [ n; n ]);
        ]
      ~ret:[ arr F64 [ n; n ] ]
      (fun b ->
        let bs =
          B.if_ b "bs" (Var "c")
            (fun tb -> [ Var (fill tb "bs_t" n 1.0) ])
            (fun fb -> [ Var (fill fb "bs_f" n 2.0) ])
        in
        [
          Var
            (B.bind b "xss2"
               (EUpdate
                  {
                    dst = "xss";
                    slc = STriplet [ SFix P.zero; B.all n ];
                    src = SrcArr (List.hd bs);
                  }));
        ])
  in
  let stats, counters =
    scenario
      ~args:
        [ Value.VInt 4; Value.VBool true; farr2 4 4 (Array.init 16 float_of_int) ]
      prog
  in
  check_fired "if-produced candidate fires" true stats;
  match counters with
  | Some (_, o) -> Alcotest.(check int) "no copies" 0 o.Gpu.Device.copies
  | None -> ()

(* ---------------------------------------------------------------- *)
(* Fig. 6a: transitive chaining                                      *)
(* ---------------------------------------------------------------- *)

let test_fig6a_transitive () =
  (* as,bs -> cs (concat) -> row i of yss; everything collapses into
     yss's memory *)
  let prog =
    B.prog "f6a" ~ctx:ctx_n
      ~params:[ pat_elem "n" i64; pat_elem "yss" (arr F64 [ n; P.scale 2 n ]) ]
      ~ret:[ arr F64 [ n; P.scale 2 n ] ]
      (fun b ->
        let as_ = fill b "as" n 1.0 in
        let bs = fill b "bs" n 2.0 in
        let cs = B.bind b "cs" (EConcat [ as_; bs ]) in
        [
          Var
            (B.bind b "yss2"
               (EUpdate
                  {
                    dst = "yss";
                    slc = STriplet [ SFix P.one; B.all (P.scale 2 n) ];
                    src = SrcArr cs;
                  }));
        ])
  in
  let stats, counters =
    scenario ~args:[ Value.VInt 3; farr2 3 6 (Array.init 18 float_of_int) ] prog
  in
  Alcotest.(check int) "cs, as and bs all circuit" 3 stats.Sc.succeeded;
  match counters with
  | Some (_, o) -> Alcotest.(check int) "everything free" 0 o.Gpu.Device.copies
  | None -> ()

(* ---------------------------------------------------------------- *)
(* Fig. 6b: mapnest per-thread results                               *)
(* ---------------------------------------------------------------- *)

let test_fig6b_mapnest () =
  (* each thread builds a row with a sequential prefix-style loop; the
     row is constructed directly in the result matrix *)
  let prog =
    B.prog "f6b" ~ctx:ctx_n ~params:[ pat_elem "n" i64 ]
      ~ret:[ arr F64 [ n; n ] ]
      (fun b ->
        let iv = Ir.Names.fresh "i" in
        let xss =
          B.mapnest b "xss" [ (iv, n) ] (fun tb ->
              let rs0 = B.bind tb "rs" (EScratch (F64, [ n ])) in
              let rs1 =
                B.bind tb "rs1"
                  (EUpdate
                     {
                       dst = rs0;
                       slc = STriplet [ SFix P.zero ];
                       src = SrcScalar (Float 1.0);
                     })
              in
              let final =
                B.loop1 tb "acc" (arr F64 [ n ]) (Var rs1)
                  ~bound:(P.sub n P.one)
                  (fun kb ~param ~i:k ->
                    let prev = B.index kb param [ k ] in
                    let v = B.fadd kb prev (Float 1.0) in
                    Var
                      (B.bind kb "rs'"
                         (EUpdate
                            {
                              dst = param;
                              slc = STriplet [ SFix (P.add k P.one) ];
                              src = SrcScalar v;
                            })))
              in
              [ Var final ])
        in
        [ Var xss ])
  in
  let stats, counters = scenario ~args:[ Value.VInt 5 ] prog in
  check_fired "per-thread result circuits" true stats;
  match counters with
  | Some (u, o) ->
      Alcotest.(check bool) "unopt pays slot traffic" true
        (u.Gpu.Device.kernel_reads > o.Gpu.Device.kernel_reads);
      Alcotest.(check bool) "opt elides" true (o.Gpu.Device.copies_elided > 0)
  | None -> ()

(* ---------------------------------------------------------------- *)
(* Hoisting and last-use                                             *)
(* ---------------------------------------------------------------- *)

let test_hoist_allocs_first () =
  let prog =
    B.prog "h" ~ctx:ctx_n ~params:[ pat_elem "n" i64 ] ~ret:[ arr F64 [ n ] ]
      (fun b ->
        let xs = fill b "xs" n 1.0 in
        let ys = fill b "ys" n 2.0 in
        ignore xs;
        [ Var ys ])
  in
  let m = Core.Memintro.introduce (Clone.clone_prog prog) in
  let h = Core.Hoist.hoist m in
  let rec leading_allocs = function
    | { exp = EAlloc _; _ } :: rest -> 1 + leading_allocs rest
    | _ -> 0
  in
  Alcotest.(check int) "both allocs float to the top" 2
    (leading_allocs h.body.stms)

let test_lastuse_annotations () =
  let prog =
    B.prog "lu" ~ctx:ctx_n ~params:[ pat_elem "n" i64 ] ~ret:[ f64 ]
      (fun b ->
        let xs = fill b "xs" n 1.0 in
        let a = B.index b xs [ P.zero ] in
        let bv = B.index b xs [ P.one ] in
        [ B.fadd b a bv ])
  in
  ignore (Core.Lastuse.annotate prog);
  (* the second read of xs is its last use *)
  let stms = prog.body.stms in
  let with_lu =
    List.filter (fun s -> List.mem "xs_1" s.last_uses || s.last_uses <> []) stms
  in
  Alcotest.(check bool) "some statement is a last use" true (with_lu <> []);
  (* the FIRST read must not be marked *)
  let first_read =
    List.find
      (fun s -> match s.exp with EIndex (_, [ i ]) -> P.is_zero i | _ -> false)
      stms
  in
  Alcotest.(check (list string)) "first read is not a last use" []
    first_read.last_uses

(* ---------------------------------------------------------------- *)
(* Memory introduction: anti-unified if                               *)
(* ---------------------------------------------------------------- *)

let test_memintro_if_existential () =
  let prog =
    B.prog "mi" ~ctx:ctx_n
      ~params:[ pat_elem "n" i64; pat_elem "c" boolt ]
      ~ret:[ arr F64 [ n; n ] ]
      (fun b ->
        let iv = Ir.Names.fresh "i" and jv = Ir.Names.fresh "j" in
        let xs =
          B.mapnest b "xs" [ (iv, n); (jv, n) ] (fun _bb -> [ Float 1.0 ])
        in
        let r =
          B.if_ b "r" (Var "c")
            (fun tb -> [ Var (B.bind tb "t" (ETranspose (xs, [ 1; 0 ]))) ])
            (fun fb -> [ Var (B.bind fb "f" (EAtom (Var xs))) ])
        in
        [ Var (List.hd r) ])
  in
  let m = Core.Memintro.introduce (Clone.clone_prog prog) in
  (* the if statement's pattern must follow the [mem, witness...,
     array] grouping: a TMem binder, i64 witnesses, then the array
     annotated with that very block *)
  let if_stm =
    List.find
      (fun s -> match s.exp with EIf _ -> true | _ -> false)
      m.body.stms
  in
  (match if_stm.pat with
  | mem_pe :: rest ->
      Alcotest.(check bool) "group starts with TMem" true (mem_pe.pt = TMem);
      let wits, arr =
        match List.rev rest with
        | arr :: rwits -> (List.rev rwits, arr)
        | [] -> Alcotest.fail "no array result in the group"
      in
      Alcotest.(check bool) "witnesses are i64" true
        (wits <> [] && List.for_all (fun pe -> pe.pt = TScalar I64) wits);
      Alcotest.(check bool) "array result is an array" true
        (is_array_typ arr.pt);
      (match arr.pmem with
      | Some mi ->
          Alcotest.(check string) "array lives in the existential block"
            mem_pe.pv mi.block;
          Alcotest.(check bool) "witnesses appear in the index function" true
            (List.exists
               (fun pe -> List.mem pe.pv (Lmads.Ixfn.vars mi.ixfn))
               wits)
      | None -> Alcotest.fail "array result lacks a memory annotation")
  | [] -> Alcotest.fail "empty if pattern");
  (* the annotated program round-trips through the type checker *)
  Check.check_prog m;
  (* and still runs: both branches (transposed and row-major layouts) *)
  List.iter
    (fun cond ->
      let expect = Interp.run prog [ Value.VInt 3; Value.VBool cond ] in
      let got = Interp.run m [ Value.VInt 3; Value.VBool cond ] in
      Alcotest.(check bool) "annotated program unchanged semantically" true
        (List.for_all2 Value.approx_equal expect got))
    [ true; false ]

(* ---------------------------------------------------------------- *)
(* Randomized: NW over random shapes stays correct & short-circuits  *)
(* ---------------------------------------------------------------- *)

let prop_nw_random_sizes =
  QCheck.Test.make ~name:"NW pipeline correct for random (q,b)" ~count:(Qcount.count 6)
    (QCheck.make
       ~print:(fun (q, b) -> Printf.sprintf "q=%d b=%d" q b)
       QCheck.Gen.(pair (int_range 2 4) (int_range 2 5)))
    (fun (q, b) ->
      let args = Benchsuite.Nw.small_args ~q ~b in
      let v = Benchsuite.Runner.validate Benchsuite.Nw.prog args in
      Benchsuite.Runner.all_ok v
      && v.Benchsuite.Runner.copies_opt = 0)

let tests =
  [
    Alcotest.test_case "Fig. 1 left" `Quick test_fig1_left;
    Alcotest.test_case "Fig. 1 right (negative)" `Quick test_fig1_right;
    Alcotest.test_case "Fig. 4a concat" `Quick test_fig4a_concat;
    Alcotest.test_case "concat bs bs (footnote 17)" `Quick
      test_concat_same_array_twice;
    Alcotest.test_case "Fig. 4b conflicting use (negative)" `Quick
      test_fig4b_conflicting_use;
    Alcotest.test_case "Fig. 4b disjoint use" `Quick test_fig4b_disjoint_use;
    Alcotest.test_case "invertible transpose chain" `Quick
      test_invertible_transpose_chain;
    Alcotest.test_case "non-invertible slice chain (negative)" `Quick
      test_noninvertible_slice_chain;
    Alcotest.test_case "Fig. 5a if candidate" `Quick test_fig5a_if;
    Alcotest.test_case "Fig. 6a transitive chaining" `Quick
      test_fig6a_transitive;
    Alcotest.test_case "Fig. 6b mapnest result" `Quick test_fig6b_mapnest;
    Alcotest.test_case "allocation hoisting" `Quick test_hoist_allocs_first;
    Alcotest.test_case "last-use annotations" `Quick test_lastuse_annotations;
    Alcotest.test_case "memintro if existentials" `Quick
      test_memintro_if_existential;
    QCheck_alcotest.to_alcotest prop_nw_random_sizes;
  ]
