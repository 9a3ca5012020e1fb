(* The documents the CI gates read, their writers, and the gates.

   BENCH.json (the bench record), the shared prover object and the
   combined certificate document are built here as Core.Json values,
   next to the gates that read them back.

   The bench-trajectory gate compares a freshly emitted BENCH.json
   against a committed baseline (bench/baseline.json):

   - per (benchmark, device, dataset) row, each variant's modeled time
     may not exceed the baseline by more than the relative tolerance -
     times are simulated, so drift only comes from code changes, and
     the tolerance only absorbs intentional cost-model adjustments;
   - per (benchmark, dataset, variant) footprint, the allocation count,
     peak live bytes and modeled DRAM traffic must be monotone
     non-increasing - these are exact counters, printed exactly, so
     any increase is a regression by definition;
   - a capped pool's high-water mark must not exceed its cap (checked
     on the current record alone - the cap is a costed constraint);
   - a benchmark present in the baseline must stay present.

   Improvements beyond tolerance and new benchmarks are reported as
   notes (a prompt to refresh the baseline), never as failures. *)

open Core.Json

(* ---------------------------------------------------------------- *)
(* Writers                                                           *)
(* ---------------------------------------------------------------- *)

(* The prover's memoization effectiveness and budget pressure, shared
   by BENCH.json and the combined certificate document.  A nonzero
   [budget_exhausted] means some nonnegativity queries were truncated
   by the step/memo budget - sound (the affected rewrites were
   skipped) but a signal the budget is too tight for the suite. *)
let prover (p : Symalg.Prover.stats) =
  let rate h m =
    Num (if h + m = 0 then 0. else float_of_int h /. float_of_int (h + m))
  in
  Obj
    [
      ("sat_hits", int p.sat_hits);
      ("sat_misses", int p.sat_misses);
      ("sat_resets", int p.sat_resets);
      ("sat_hit_rate", rate p.sat_hits p.sat_misses);
      ("nonneg_hits", int p.nonneg_hits);
      ("nonneg_misses", int p.nonneg_misses);
      ("nonneg_resets", int p.nonneg_resets);
      ("nonneg_hit_rate", rate p.nonneg_hits p.nonneg_misses);
      ("budget_exhausted", int p.budget_exhausted);
    ]

let footprint (f : Runner.footprint) =
  let pool =
    match f.f_pool with
    | None -> []
    | Some ps ->
        let cap =
          match ps.p_cap with
          | Some c -> [ ("cap", Num c); ("evictions", int ps.p_evictions) ]
          | None -> []
        in
        [
          ( "pool",
            Obj
              ([
                 ("hits", int f.f_pool_hits);
                 ("misses", int f.f_pool_misses);
                 ("device_bytes", Num ps.p_device_bytes);
                 ("high_water_bytes", Num ps.p_high_water);
                 ("fragmentation", Num ps.p_fragmentation);
               ]
              @ cap) );
        ]
  in
  Obj
    ([
       ("allocs", int f.f_allocs);
       ("arena_allocs", int f.f_arena_allocs);
       ("arena_bytes", Num f.f_arena_bytes);
       ("scratch", int f.f_scratch);
       ("alloc_bytes", Num f.f_alloc_bytes);
       ("peak_bytes", Num f.f_peak_bytes);
       ("traffic_bytes", Num f.f_traffic_bytes);
     ]
    @ pool)

let bench_obj (name, table_no, (o : Runner.outcome)) =
  let c = o.compiled in
  let row (r : Table.row) =
    (* the opt variant's impact is the paper's own column *)
    Obj
      ([
         ("device", Str r.device);
         ("dataset", Str r.dataset);
         ("ref_ms", Num (r.ref_s *. 1e3));
       ]
      @ List.map (fun (v, ms) -> (v ^ "_ms", Num ms)) (Table.ms r)
      @ List.map
          (fun (v, x) ->
            ((if v = "opt" then "impact" else v ^ "_impact"), Num x))
          (Table.impacts_of r))
  in
  let rst = c.reuse_stats and pst = c.pack_stats in
  Obj
    [
      ("name", Str name);
      ("table", int table_no);
      ("rows", Arr (List.map row o.table.rows));
      ( "footprints",
        Arr
          (List.map
             (fun (label, fs) ->
               Obj
                 (("dataset", Str label)
                 :: List.map (fun (v, f) -> (v, footprint f)) fs))
             o.footprints) );
      ( "compile_s",
        Obj
          [
            ("base", Num c.time_base);
            ("shortcircuit", Num c.time_sc);
            ("reuse", Num c.time_reuse);
            ("pack", Num c.time_pack);
          ] );
      ("dead_allocs", int c.dead_allocs);
      ("reuse_dead_allocs", int c.reuse_dead_allocs);
      ("pack_dead_allocs", int c.pack_dead_allocs);
      ( "reuse_stats",
        Obj
          [
            ("candidates", int rst.candidates);
            ("coalesced", int rst.coalesced);
            ("size_proofs", int rst.size_proofs);
            ("chain_links", int rst.chain_links);
            ("rotated", int rst.rotated);
            ("hoisted", int rst.hoisted);
          ] );
      ( "pack_stats",
        Obj
          [
            ("arenas", int pst.arenas);
            ("packed", int pst.packed);
            ("unpacked", int pst.unpacked);
            ("offset_proofs", int pst.offset_proofs);
            ("holes", int pst.holes);
            ("promoted", int pst.promoted);
          ] );
      (* per-pass obligation counts of the translation-validation run
         that rides along with every table compile *)
      ( "certify",
        Obj
          (List.map
             (fun (pass, (r : Core.Certify.report)) ->
               ( pass,
                 Obj
                   [
                     ("emitted", int r.emitted);
                     ("proved", int r.proved);
                     ("concretized", int r.concretized);
                     ("failed", int r.failed);
                   ] ))
             c.certs) );
    ]

let bench_record ~date outcomes pstats =
  Obj
    [
      ("date", Str date);
      ("benchmarks", Arr (List.map bench_obj outcomes));
      ("prover", prover pstats);
    ]

let cert_bench name (certs : (string * Core.Certify.report) list) =
  Obj
    [
      ("name", Str name);
      ( "passes",
        Arr (List.map (fun (_, r) -> Core.Certify.json_of_report r) certs) );
    ]

let cert_doc docs pstats =
  Obj [ ("benchmarks", Arr docs); ("prover", prover pstats) ]

(* ---------------------------------------------------------------- *)
(* Reading back                                                      *)
(* ---------------------------------------------------------------- *)

let list_at k v = Option.value ~default:[] (Option.bind (member k v) arr)
let str_at k v = Option.value ~default:"?" (Option.bind (member k v) str)

(* ---------------------------------------------------------------- *)
(* Gate results                                                      *)
(* ---------------------------------------------------------------- *)

type gate = {
  regressions : string list; (* hard failures: exit nonzero *)
  notes : string list; (* informational: improvements, new benchmarks *)
  checked : int; (* individual comparisons performed *)
}

(* what a gate run collects, newest first *)
type acc = {
  mutable regs : string list;
  mutable nts : string list;
  mutable n : int;
}

let reg a fmt = Printf.ksprintf (fun m -> a.regs <- m :: a.regs) fmt
let note a fmt = Printf.ksprintf (fun m -> a.nts <- m :: a.nts) fmt

let collect f =
  let a = { regs = []; nts = []; n = 0 } in
  f a;
  { regressions = List.rev a.regs; notes = List.rev a.nts; checked = a.n }

(* One comparison of the number at [path] in a baseline-side and a
   current-side value: [k b c] runs, and counts, when both have it. *)
let compare_at a path bv cv k =
  match (num_at path bv, num_at path cv) with
  | Some b, Some c ->
      a.n <- a.n + 1;
      k b c
  | _ -> ()

let benchmarks_of = list_at "benchmarks"
let name_of = str_at "name"
let find_by key k l = List.find_opt (fun x -> key x = k) l
let find = find_by name_of

(* Every current benchmark missing from the baseline is a note. *)
let note_new a ~baseline cur_b =
  List.iter
    (fun cb ->
      if find (name_of cb) baseline = None then
        note a "%s: new benchmark not in baseline - refresh to start gating it"
          (name_of cb))
    cur_b

(* ---------------------------------------------------------------- *)
(* The bench-trajectory gate                                          *)
(* ---------------------------------------------------------------- *)

let default_tolerance = 0.05

(* time fields per row, footprint fields per variant *)
let fp_variants = Core.Pipeline.variant_names
let row_times = List.map (fun v -> v ^ "_ms") fp_variants
let fp_monotone = [ "allocs"; "peak_bytes"; "traffic_bytes" ]

(* packing-pass counters: arenas, packed placements and certified
   lifetime holes may only grow, unpacked (undecidable) placements may
   only shrink - the planner must not silently lose coverage *)
let pack_grow = [ "arenas"; "packed"; "holes" ]
let pack_shrink = [ "unpacked" ]
let prover_work = [ "sat_misses"; "nonneg_misses"; "budget_exhausted" ]

let gate ?(tolerance = default_tolerance) ~(baseline : t) ~(current : t) () :
    gate =
  collect @@ fun a ->
  let cur_b = benchmarks_of current in
  List.iter
    (fun bb ->
      let bname = name_of bb in
      match find bname cur_b with
      | None ->
          reg a "%s: benchmark present in baseline but missing from current run"
            bname
      | Some cb ->
          (* rows: modeled times within tolerance *)
          let row_key r = (str_at "device" r, str_at "dataset" r) in
          List.iter
            (fun br ->
              let dev, ds = row_key br in
              match find_by row_key (dev, ds) (list_at "rows" cb) with
              | None ->
                  reg a "%s [%s/%s]: row missing from current run" bname dev ds
              | Some cr ->
                  List.iter
                    (fun field ->
                      match (num_at [ field ] br, num_at [ field ] cr) with
                      | Some b, Some c when b > 0. ->
                          a.n <- a.n + 1;
                          let rel = (c -. b) /. b in
                          if rel > tolerance then
                            reg a
                              "%s [%s/%s]: %s %.4g -> %.4g ms (%+.1f%%, \
                               tolerance %.1f%%)"
                              bname dev ds field b c (100. *. rel)
                              (100. *. tolerance)
                          else if rel < -.tolerance then
                            note a
                              "%s [%s/%s]: %s improved %.4g -> %.4g ms \
                               (%+.1f%%) - consider refreshing the baseline"
                              bname dev ds field b c (100. *. rel)
                      | _ -> ())
                    row_times)
            (list_at "rows" bb);
          (* footprints: exact counters, monotone non-increasing *)
          let ds_of = str_at "dataset" in
          List.iter
            (fun bf ->
              let ds = ds_of bf in
              match find_by ds_of ds (list_at "footprints" cb) with
              | None ->
                  reg a "%s [%s]: footprint missing from current run" bname ds
              | Some cf ->
                  List.iter
                    (fun variant ->
                      List.iter
                        (fun field ->
                          compare_at a [ variant; field ] bf cf (fun b c ->
                              if c > b then
                                reg a "%s [%s] %s: %s grew %s -> %s" bname ds
                                  variant field (number b) (number c)
                              else if c < b then
                                note a
                                  "%s [%s] %s: %s shrank %s -> %s - consider \
                                   refreshing the baseline"
                                  bname ds variant field (number b) (number c)))
                        fp_monotone;
                      (* a capped pool's high-water mark must respect
                         the cap: the cap is a costed constraint, not a
                         hint, so any breach is a hard failure of the
                         current record regardless of the baseline *)
                      let pool k = num_at [ variant; "pool"; k ] cf in
                      match (pool "high_water_bytes", pool "cap") with
                      | Some hw, Some cap ->
                          a.n <- a.n + 1;
                          if hw > cap then
                            reg a
                              "%s [%s] %s: pool high-water %s exceeds cap %s"
                              bname ds variant (number hw) (number cap)
                      | _ -> ())
                    fp_variants)
            (list_at "footprints" bb);
          (* packing coverage: the planner may not lose ground - fewer
             arenas or packed placements, or more undecidable ones,
             means previously provable offsets stopped proving *)
          let pack_counter ~grow field =
            compare_at a [ "pack_stats"; field ] bb cb (fun b c ->
                let lost = if grow then c < b else c > b in
                if lost then
                  reg a "%s: pack_stats.%s %s %s -> %s" bname field
                    (if grow then "dropped" else "grew")
                    (number b) (number c)
                else if c <> b then
                  note a
                    "%s: pack_stats.%s %s %s -> %s - consider refreshing the \
                     baseline"
                    bname field
                    (if c > b then "grew" else "shrank")
                    (number b) (number c))
          in
          List.iter (pack_counter ~grow:true) pack_grow;
          List.iter (pack_counter ~grow:false) pack_shrink)
    (benchmarks_of baseline);
  (* prover work: search counts, the gated proxy for the toolchain's
     own compile time - more searches means a slower compile *)
  List.iter
    (fun field ->
      compare_at a [ "prover"; field ] baseline current (fun b c ->
          if c > b then
            reg a "prover.%s rose %s -> %s" field (number b) (number c)
          else if c < b then
            note a "prover.%s fell %s -> %s - consider refreshing the baseline"
              field (number b) (number c)))
    prover_work;
  note_new a ~baseline:(benchmarks_of baseline) cur_b

(* ---------------------------------------------------------------- *)
(* The pack-order gate                                                *)
(* ---------------------------------------------------------------- *)

(* Compares the colour-placement bench record against a first-fit run
   of the same tree (the --pack-order A/B).  The planner falls back to
   first-fit whenever colouring's extent is not provably smaller, so
   colour must never lose ground on any executor-derived surface: the
   executed arena extent ([pack.arena_bytes], per dataset) may not
   exceed first-fit's, and the planner's coverage (arenas, packed
   placements, certified holes) may not shrink.  Any breach is a hard
   failure - there is no tolerance, both records come from the same
   commit. *)
let pack_order_gate ~(firstfit : t) ~(colour : t) () : gate =
  collect @@ fun a ->
  let c_b = benchmarks_of colour in
  List.iter
    (fun fb ->
      let bname = name_of fb in
      match find bname c_b with
      | None -> reg a "%s: benchmark missing from the colour run" bname
      | Some cb ->
          let ds_of = str_at "dataset" in
          List.iter
            (fun ff ->
              let ds = ds_of ff in
              match find_by ds_of ds (list_at "footprints" cb) with
              | None ->
                  reg a "%s [%s]: footprint missing from the colour run" bname
                    ds
              | Some cf ->
                  compare_at a [ "pack"; "arena_bytes" ] ff cf (fun f c ->
                      if c > f then
                        reg a
                          "%s [%s]: colour arena extent %s B exceeds \
                           first-fit's %s B"
                          bname ds (number c) (number f)
                      else if c < f then
                        note a
                          "%s [%s]: colour arena extent %s B < first-fit %s B"
                          bname ds (number c) (number f)))
            (list_at "footprints" fb);
          List.iter
            (fun field ->
              compare_at a [ "pack_stats"; field ] fb cb (fun f c ->
                  if c < f then
                    reg a "%s: colour pack_stats.%s %s below first-fit's %s"
                      bname field (number c) (number f)
                  else if c > f then
                    note a "%s: colour pack_stats.%s %s above first-fit's %s"
                      bname field (number c) (number f)))
            pack_grow)
    (benchmarks_of firstfit)

(* ---------------------------------------------------------------- *)
(* The certificate gate                                               *)
(* ---------------------------------------------------------------- *)

(* Compares a freshly emitted combined certificate document ([repro
   certify all --json]) against a committed baseline
   (bench/certs-baseline.json).  Certificates are exact - every
   obligation either re-proves or it does not - so there is no
   tolerance: any lost ground is a regression.

   Per (benchmark, pass, obligation id):

   - a benchmark, pass, or obligation present in the baseline must
     stay present;
   - an obligation's verdict may not weaken (proved > concretized >
     failed);
   - a pass's emitted and proved counts may not decrease (the passes
     must keep justifying at least as many rewrites as before);
   - any failed obligation in the current run is a regression
     outright, baseline or not.

   Strengthened verdicts, new obligations, new passes and new
   benchmarks are notes - a prompt to refresh the baseline. *)

let verdict_rank = function
  | "proved" -> 2
  | "concretized" -> 1
  | _ -> 0 (* failed, or anything unrecognized *)

let cert_gate ~(baseline : t) ~(current : t) () : gate =
  collect @@ fun a ->
  let passes = list_at "passes" and pass_name = str_at "pass" in
  let obls = list_at "obligations" in
  let obl_id o = Option.bind (member "id" o) num in
  let obl_verdict = str_at "verdict" and obl_rewrite = str_at "rewrite" in
  let base_b = benchmarks_of baseline and cur_b = benchmarks_of current in
  (* any current failure is a hard failure, gated or not *)
  List.iter
    (fun cb ->
      List.iter
        (fun cp ->
          List.iter
            (fun o ->
              if obl_verdict o = "failed" then
                reg a "%s/%s: obligation #%g (%s) FAILED in the current run"
                  (name_of cb) (pass_name cp)
                  (Option.value ~default:(-1.) (obl_id o))
                  (obl_rewrite o))
            (obls cp))
        (passes cb))
    cur_b;
  List.iter
    (fun bb ->
      let bname = name_of bb in
      match find bname cur_b with
      | None ->
          reg a "%s: benchmark present in baseline but missing from current run"
            bname
      | Some cb ->
          List.iter
            (fun bp ->
              let pname = pass_name bp in
              match find_by pass_name pname (passes cb) with
              | None ->
                  reg a "%s: pass %s present in baseline but missing from \
                         current run"
                    bname pname
              | Some cp ->
                  (* aggregate counts: emitted and proved must not drop *)
                  List.iter
                    (fun field ->
                      compare_at a [ field ] bp cp (fun b c ->
                          if c < b then
                            reg a "%s/%s: %s count dropped %g -> %g" bname pname
                              field b c
                          else if c > b then
                            note a
                              "%s/%s: %s count grew %g -> %g - consider \
                               refreshing the baseline"
                              bname pname field b c))
                    [ "emitted"; "proved" ];
                  (* per-obligation verdicts, matched by id *)
                  let cur_obls = obls cp in
                  List.iter
                    (fun bo ->
                      match obl_id bo with
                      | None -> ()
                      | Some id -> (
                          match find_by obl_id (Some id) cur_obls with
                          | None ->
                              reg a
                                "%s/%s: obligation #%g (%s) disappeared from \
                                 the current run"
                                bname pname id (obl_rewrite bo)
                          | Some co ->
                              a.n <- a.n + 1;
                              let bv = obl_verdict bo and cv = obl_verdict co in
                              if verdict_rank cv < verdict_rank bv then
                                reg a
                                  "%s/%s: obligation #%g (%s) weakened %s -> \
                                   %s"
                                  bname pname id (obl_rewrite bo) bv cv
                              else if verdict_rank cv > verdict_rank bv then
                                note a
                                  "%s/%s: obligation #%g strengthened %s -> \
                                   %s - consider refreshing the baseline"
                                  bname pname id bv cv))
                    (obls bp);
                  let base_ids = List.filter_map obl_id (obls bp) in
                  List.iter
                    (fun co ->
                      match obl_id co with
                      | Some id when not (List.mem id base_ids) ->
                          note a
                            "%s/%s: new obligation #%g (%s) not in baseline - \
                             refresh to start gating it"
                            bname pname id (obl_rewrite co)
                      | _ -> ())
                    cur_obls)
            (passes bb);
          List.iter
            (fun cp ->
              let pname = pass_name cp in
              if find_by pass_name pname (passes bb) = None then
                note a "%s: new pass %s not in baseline - refresh to start \
                        gating it"
                  bname pname)
            (passes cb))
    base_b;
  note_new a ~baseline:base_b cur_b

let report ?(label = "bench gate") (g : gate) : string =
  let buf = Buffer.create 512 in
  Printf.bprintf buf "%s: %d comparisons, %d regression(s), %d note(s)\n" label
    g.checked
    (List.length g.regressions)
    (List.length g.notes);
  List.iter (Printf.bprintf buf "REGRESSION %s\n") g.regressions;
  List.iter (Printf.bprintf buf "note %s\n") g.notes;
  Buffer.contents buf

let ok (g : gate) = g.regressions = []
