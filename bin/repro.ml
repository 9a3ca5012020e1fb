(* The `repro` command-line driver.

     repro table <1..7|all>     regenerate the paper's tables (four
                                variants: unoptimized, short-circuited,
                                memory-reused, arena-packed);
                                --bench-json writes a machine-readable
                                perf record
     repro validate [bench]     full-mode validation at reduced sizes
     repro lint [bench]         static memory-IR verification (memlint)
     repro trace [bench]        traced execution + dynamic cross-check
                                (memtrace); --json dumps the event log,
                                --diff compares the variants' logical
                                event skeletons
     repro dump <bench> [--variant NAME]
                                print one variant's (memory-annotated) IR
     repro bench [--check]      emit the BENCH.json performance record;
                                with --check, gate it against the
                                committed bench/baseline.json and exit
                                nonzero on regression
     repro chaos <bench|all>    seeded fault-injection campaign: inject
                                all five fault classes into each
                                benchmark and check the fail-safe
                                invariants (--json writes the campaign
                                record); exits nonzero on any violation
     repro prove-nw             show the Fig. 9 non-overlap proof

   Exit-code contract (see README): 0 = clean; 1 = a gate failed, a
   benchmark degraded through the fail-safe ladder, or a chaos
   invariant was violated; 124/125 = cmdliner usage/internal errors.
   `repro table all` never dies on the first fault: it aggregates
   per-benchmark faults and names every degraded or failed benchmark
   in a final summary line.
*)

open Cmdliner

type bench = {
  name : string;
  table_no : int;
  table :
    ?options:Core.Shortcircuit.options ->
    ?reuse:Core.Reuse.options ->
    ?pack:Core.Pack.options ->
    ?pool:bool ->
    ?pool_cap:int ->
    ?fail_safe:bool ->
    unit ->
    Benchsuite.Runner.outcome;
  prog : Ir.Ast.prog;
  small_args : Ir.Value.t list Lazy.t;
}

let benches : bench list =
  [
    {
      name = "nw";
      table_no = 1;
      table = Benchsuite.Nw.table;
      prog = Benchsuite.Nw.prog;
      small_args = lazy (Benchsuite.Nw.small_args ~q:3 ~b:4);
    };
    {
      name = "lud";
      table_no = 2;
      table = Benchsuite.Lud.table;
      prog = Benchsuite.Lud.prog;
      small_args = lazy (Benchsuite.Lud.small_args ~q:3 ~b:4);
    };
    {
      name = "hotspot";
      table_no = 3;
      table = Benchsuite.Hotspot.table;
      prog = Benchsuite.Hotspot.prog;
      small_args = lazy (Benchsuite.Hotspot.small_args ~n:16 ~steps:3);
    };
    {
      name = "lbm";
      table_no = 4;
      table = Benchsuite.Lbm.table;
      prog = Benchsuite.Lbm.prog;
      small_args = lazy (Benchsuite.Lbm.small_args ~n:8 ~steps:3);
    };
    {
      name = "optionpricing";
      table_no = 5;
      table = Benchsuite.Option_pricing.table;
      prog = Benchsuite.Option_pricing.prog;
      small_args =
        lazy (Benchsuite.Option_pricing.small_args ~npaths:64 ~nsteps:16);
    };
    {
      name = "locvolcalib";
      table_no = 6;
      table = Benchsuite.Locvolcalib.table;
      prog = Benchsuite.Locvolcalib.prog;
      small_args =
        lazy (Benchsuite.Locvolcalib.small_args ~numo:6 ~numx:12 ~numt:4);
    };
    {
      name = "nn";
      table_no = 7;
      table = Benchsuite.Nn.table;
      prog = Benchsuite.Nn.prog;
      small_args = lazy (Benchsuite.Nn.small_args ~nrec:100 ~nbatch:4 ~bsz:8);
    };
  ]

let find_bench s =
  match
    List.find_opt
      (fun b ->
        b.name = String.lowercase_ascii s
        || string_of_int b.table_no = s)
      benches
  with
  | Some b -> Ok b
  | None ->
      Error
        (Printf.sprintf "unknown benchmark %S (try: %s)" s
           (String.concat ", " (List.map (fun b -> b.name) benches)))

(* "all" or one benchmark, by name or table number *)
let select = function
  | "all" -> Ok benches
  | s -> Result.map (fun b -> [ b ]) (find_bench s)

let ( let* ) = Result.bind

(* ---- files -------------------------------------------------------- *)

let read_file path =
  try Ok (In_channel.with_open_bin path In_channel.input_all)
  with Sys_error e -> Error e

let write_file path contents =
  Out_channel.with_open_text path (fun oc -> output_string oc contents)

let ensure_dir dir = if not (Sys.file_exists dir) then Sys.mkdir dir 0o755

(* A JSON document as written to a file or stdout: one line. *)
let doc j = Core.Json.to_string j ^ "\n"

let today () =
  let t = Unix.localtime (Unix.time ()) in
  Printf.sprintf "%04d-%02d-%02d" (t.Unix.tm_year + 1900) (t.Unix.tm_mon + 1)
    t.Unix.tm_mday

(* ---- gates -------------------------------------------------------- *)

(* The flow shared by the bench, pack-order and certificate gates: read
   and parse the reference record at [path] ([role] names it in
   errors) and the current record [cur_s], run [gate] on the two, print
   the report (and [hint] when it has notes), copy it to [report], and
   fail on any regression. *)
let run_gate ~label ~role ~path ?(hint = "") ~report gate cur_s =
  let parse what s =
    Result.map_error (fun e -> what ^ " parse error: " ^ e) (Core.Json.parse s)
  in
  let* ref_s =
    Result.map_error (Printf.sprintf "%s %s: %s" role path) (read_file path)
  in
  let* reference = parse role ref_s in
  let* current = parse "current" cur_s in
  let g = gate reference current in
  let rep = Benchsuite.Benchjson.report ~label g in
  print_string rep;
  if g.Benchsuite.Benchjson.notes <> [] then print_string hint;
  Option.iter
    (fun path ->
      write_file path rep;
      Printf.printf "wrote %s\n" path)
    report;
  if Benchsuite.Benchjson.ok g then Ok ()
  else
    Error
      (Printf.sprintf "%s failed: %d regression(s)" label
         (List.length g.Benchsuite.Benchjson.regressions))

(* ---- table ----------------------------------------------------- *)

let pp_footprints ?(verbose = false) (o : Benchsuite.Runner.outcome) =
  let open Benchsuite.Runner in
  let holes = o.compiled.Core.Pipeline.pack_stats.Core.Pack.holes in
  let a f =
    let base =
      if f.f_scratch = 0 then string_of_int f.f_allocs
      else Printf.sprintf "%d+%ds" f.f_allocs f.f_scratch
    in
    if f.f_arena_allocs = 0 then base
    else if holes = 0 then Printf.sprintf "%s(%da)" base f.f_arena_allocs
    else Printf.sprintf "%s(%da,%dh)" base f.f_arena_allocs holes
  in
  (* one cell per variant, in ladder order *)
  let arrows fmt get l =
    String.concat " -> " (List.map (fun x -> Printf.sprintf fmt (get x)) l)
  in
  List.iter
    (fun (label, fps) ->
      let fs = List.map snd fps in
      Printf.printf "  footprint %-9s allocs %s | peak %s B (%s)\n" label
        (arrows "%s" a fs)
        (arrows "%.3g" (fun f -> f.f_peak_bytes) fs)
        (String.concat "/" (List.map fst fps));
      let pools = List.filter_map (fun f -> f.f_pool) fs in
      if List.length pools = List.length fs then begin
        Printf.printf "  pool      %-9s hit/miss %s\n" label
          (arrows "%s"
             (fun f -> Printf.sprintf "%d/%d" f.f_pool_hits f.f_pool_misses)
             fs);
        if verbose then
          Printf.printf
            "  pool      %-9s high-water %s B | fragmentation %s\n" label
            (arrows "%.3g" (fun ps -> ps.Gpu.Device.Pool.p_high_water) pools)
            (arrows "%.0f%%"
               (fun ps -> 100. *. ps.Gpu.Device.Pool.p_fragmentation)
               pools)
      end)
    o.footprints

(* How table and bench runs compile and price the suite: the pass
   options, the pool model, the degradation ladder and the prover
   budget, as set on the command line. *)
type suite = {
  options : Core.Shortcircuit.options;
  reuse : Core.Reuse.options;
  pack : Core.Pack.options;
  pool : bool;
  pool_cap : int option;
  fail_safe : bool;
  budget : Symalg.Prover.budget;
}

let run_suite s b =
  b.table ~options:s.options ~reuse:s.reuse ~pack:s.pack ~pool:s.pool
    ?pool_cap:s.pool_cap ~fail_safe:s.fail_safe ()

(* One machine-readable performance record for the whole suite. *)
let bench_record outcomes =
  Benchsuite.Benchjson.bench_record ~date:(today ())
    (List.map (fun (b, o) -> (b.name, b.table_no, o)) outcomes)
    (Symalg.Prover.stats ())

let default_bench_json_name () = "BENCH_" ^ today () ^ ".json"

(* Every benchmark runs, every fault is named, and any degradation or
   failure makes the exit nonzero: a run never dies on the first
   fault. *)
let run_table which s bench_json out =
  Symalg.Prover.set_budget s.budget;
  Symalg.Prover.reset_stats ();
  let run b =
    let o = run_suite s b in
    print_string (Benchsuite.Table.to_string o.Benchsuite.Runner.table);
    let st = o.Benchsuite.Runner.compiled.Core.Pipeline.stats in
    let rst = o.Benchsuite.Runner.compiled.Core.Pipeline.reuse_stats in
    let pst = o.Benchsuite.Runner.compiled.Core.Pipeline.pack_stats in
    if s.options.Core.Shortcircuit.verbose then begin
      Fmt.pr "%a@.@." Core.Shortcircuit.pp_stats st;
      Fmt.pr "%a@.@." Core.Reuse.pp_stats rst;
      Fmt.pr "%a@.@." Core.Pack.pp_stats pst;
      Fmt.pr "%a@.@." Symalg.Prover.pp_stats (Symalg.Prover.stats ())
    end
    else begin
      Printf.printf "  short-circuiting: %d/%d candidates, %d vars rebased\n"
        st.Core.Shortcircuit.succeeded st.Core.Shortcircuit.candidates
        st.Core.Shortcircuit.rebased_vars;
      Printf.printf
        "  memory reuse: %d chain links, %d rotated, %d hoisted, %d/%d \
         coalesced (%d more allocs dropped)\n"
        rst.Core.Reuse.chain_links rst.Core.Reuse.rotated
        rst.Core.Reuse.hoisted rst.Core.Reuse.coalesced
        rst.Core.Reuse.candidates
        o.Benchsuite.Runner.compiled.Core.Pipeline.reuse_dead_allocs;
      Printf.printf
        "  packing: %d arenas, %d placed (%d promoted), %d unpacked, %d \
         holes, %d offset proofs (%d member allocs absorbed)\n"
        pst.Core.Pack.arenas pst.Core.Pack.packed pst.Core.Pack.promoted
        pst.Core.Pack.unpacked pst.Core.Pack.holes
        pst.Core.Pack.offset_proofs
        o.Benchsuite.Runner.compiled.Core.Pipeline.pack_dead_allocs
    end;
    pp_footprints ~verbose:s.options.Core.Shortcircuit.verbose o;
    List.iter
      (fun (r : Core.Pipeline.recovery) ->
        Printf.printf "  RECOVERED fault in %s: %s -> fell back to %s\n"
          r.Core.Pipeline.r_pass
          (Core.Fault.to_string r.Core.Pipeline.r_fault)
          r.Core.Pipeline.r_fallback)
      o.Benchsuite.Runner.compiled.Core.Pipeline.recovery;
    (match o.Benchsuite.Runner.traffic with
    | None -> ()
    | Some t ->
        let mb x = x /. 1e6 in
        let dev m m' = if m' = 0. then 0. else 100. *. (m -. m') /. m' in
        Printf.printf
          "  traffic @ reduced size: kernels %.3f MB measured vs %.3f MB \
           modeled (%+.1f%%), copies %.3f vs %.3f MB | memtrace %s\n"
          (mb t.Benchsuite.Runner.measured_rw)
          (mb t.Benchsuite.Runner.modeled_rw)
          (dev t.Benchsuite.Runner.modeled_rw t.Benchsuite.Runner.measured_rw)
          (mb t.Benchsuite.Runner.measured_copy)
          (mb t.Benchsuite.Runner.modeled_copy)
          (if Core.Memtrace.ok t.Benchsuite.Runner.check then "clean"
           else "VIOLATIONS"));
    print_newline ();
    o
  in
  let degraded b (o : Benchsuite.Runner.outcome) =
    match o.Benchsuite.Runner.compiled.Core.Pipeline.recovery with
    | [] -> None
    | r :: _ ->
        Some
          (Printf.sprintf "%s degraded (%s)" b.name
             (Core.Fault.layer r.Core.Pipeline.r_fault))
  in
  let* bs = select which in
  let results =
    List.map
      (fun b ->
        match run b with
        | o -> (b, Ok o)
        | exception e ->
            Printf.printf "bench %-14s FAILED: %s\n\n" b.name
              (Printexc.to_string e);
            (b, Error (Printexc.to_string e)))
      bs
  in
  (if bench_json then
     let path = Option.value out ~default:(default_bench_json_name ()) in
     write_file path
       (doc
          (bench_record
             (List.filter_map
                (function b, Ok o -> Some (b, o) | _, Error _ -> None)
                results)));
     Printf.printf "wrote %s\n" path);
  let faulted =
    List.filter_map
      (fun (b, r) ->
        match r with
        | Error e -> Some (Printf.sprintf "%s failed (%s)" b.name e)
        | Ok o -> degraded b o)
      results
  in
  if faulted = [] then Ok ()
  else Error ("degraded/failed benchmarks: " ^ String.concat "; " faulted)

(* ---- validate --------------------------------------------------- *)

let run_validate which =
  let validate b =
    let v = Benchsuite.Runner.validate b.prog (Lazy.force b.small_args) in
    Printf.printf
      "%-14s interp-match: %s | copies %d -> %d (%d elided) | circuits %d\n"
      b.name
      (String.concat " "
         (List.map
            (fun (name, ok) -> Printf.sprintf "%s=%b" name ok)
            v.Benchsuite.Runner.ok))
      v.Benchsuite.Runner.copies_unopt v.Benchsuite.Runner.copies_opt
      v.Benchsuite.Runner.elided v.Benchsuite.Runner.sc_succeeded;
    Benchsuite.Runner.all_ok v
  in
  let* bs = select which in
  if List.for_all validate bs then Ok () else Error "validation failed"

(* ---- lint -------------------------------------------------------- *)

let run_lint which options pack verbose_reports =
  let lint b =
    let c = Core.Pipeline.compile ~options ~pack ~lint:true b.prog in
    List.iter
      (fun (_, r) ->
        if verbose_reports || not (Core.Memlint.ok r) then
          Fmt.pr "%a@.@." Core.Memlint.pp_report r)
      c.Core.Pipeline.lint;
    match Core.Pipeline.first_lint_error c.Core.Pipeline.lint with
    | None ->
        let warns =
          List.fold_left
            (fun n (_, r) -> n + List.length (Core.Memlint.warnings r))
            0 c.Core.Pipeline.lint
        in
        Printf.printf "%-14s %d stages clean (%d warnings)\n" b.name
          (List.length c.Core.Pipeline.lint)
          warns;
        true
    | Some (stage, v) ->
        Fmt.epr "%-14s violation introduced by %s: %a@." b.name stage
          Core.Memlint.pp_violation v;
        false
  in
  let* bs = select which in
  if List.fold_left (fun ok b -> lint b && ok) true bs then Ok ()
  else Error "lint failed"

(* ---- trace ------------------------------------------------------- *)

(* Full-mode traced execution of every pipeline variant at the reduced
   size, cross-checked by memtrace.  Human output shows the checker's
   verdict and the per-kernel traffic histogram of the optimized run;
   [--json] emits the raw event logs instead (to stdout, or to
   <out>/<bench>.json per benchmark when [-o] is given). *)

let print_histogram t =
  let tr = Core.Trace.traffic t in
  Printf.printf "  %-18s %8s %12s %12s\n" "kernel" "launches" "read MB"
    "write MB";
  List.iter
    (fun (label, launches, r, w) ->
      Printf.printf "  %-18s %8d %12.4f %12.4f\n" label launches (r /. 1e6)
        (w /. 1e6))
    (Core.Trace.histogram t);
  Printf.printf
    "  total: %.4f MB read, %.4f MB written, %.4f MB copied (%.4f MB \
     elided)\n"
    (tr.Core.Trace.t_kernel_reads /. 1e6)
    (tr.Core.Trace.t_kernel_writes /. 1e6)
    (tr.Core.Trace.t_copy_bytes /. 1e6)
    (tr.Core.Trace.t_elided_bytes /. 1e6)

let traces_clean ts =
  List.for_all
    (fun (_, (t : Benchsuite.Runner.traced)) ->
      Core.Memtrace.ok t.Benchsuite.Runner.check)
    ts

(* One benchmark's trace document.  The trace schema separates its
   top-level members with ", " and ": "; every value in it is printed
   by Core.Json. *)
let traces_json (ts : (string * Benchsuite.Runner.traced) list) =
  let member (k, v) = Core.Json.(to_string (Str k) ^ ": " ^ to_string v) in
  "{"
  ^ String.concat ", "
      (List.map member
         (("clean", Core.Json.Bool (traces_clean ts))
         :: List.map
              (fun (v, (t : Benchsuite.Runner.traced)) ->
                (v, Core.Trace.to_json t.Benchsuite.Runner.trace))
              ts))
  ^ "}"

(* --diff: the optimizations may move and elide storage but must not
   change the logical event sequence.  Compare each variant's trace
   skeleton with the next rung's; any divergence is a failure. *)
let diff_traces b (ts : (string * Benchsuite.Runner.traced) list) : bool =
  let pair ta tb =
    match Core.Trace.diff ta tb with
    | [] -> true
    | ds ->
        Printf.printf "%-14s %s vs %s: %d divergence(s)\n" b.name
          (Core.Trace.variant ta) (Core.Trace.variant tb) (List.length ds);
        List.iter (fun d -> Printf.printf "  %s\n" d) ds;
        false
  in
  let traces = List.map (fun (_, t) -> t.Benchsuite.Runner.trace) ts in
  let rec pairs = function
    | ta :: (tb :: _ as rest) ->
        let ok = pair ta tb in
        ok :: pairs rest
    | _ -> []
  in
  let ok = List.for_all Fun.id (pairs traces) in
  if ok then
    Printf.printf "%-14s skeletons agree across %s (%d logical events)\n"
      b.name
      (String.concat "/" (List.map fst ts))
      (List.length (Core.Trace.skeleton (List.hd traces)));
  ok

let run_trace which json diff out =
  let trace b =
    let ts = Benchsuite.Runner.trace_check b.prog (Lazy.force b.small_args) in
    let clean = traces_clean ts in
    if diff then diff_traces b ts && clean
    else begin
      if json then (
        let s = traces_json ts in
        match out with
        | None -> print_endline s
        | Some dir ->
            ensure_dir dir;
            let path = Filename.concat dir (b.name ^ ".json") in
            write_file path (s ^ "\n");
            Printf.printf "%-14s wrote %s (%s)\n" b.name path
              (if clean then "clean" else "VIOLATIONS"))
      else begin
        List.iter
          (fun (_, (t : Benchsuite.Runner.traced)) ->
            Fmt.pr "%a@." Core.Memtrace.pp_report t.Benchsuite.Runner.check)
          ts;
        print_histogram (List.assoc "opt" ts).Benchsuite.Runner.trace;
        print_newline ()
      end;
      clean
    end
  in
  let* bs = select which in
  if List.fold_left (fun ok b -> trace b && ok) true bs then Ok ()
  else Error "memtrace cross-check failed"

(* ---- dump -------------------------------------------------------- *)

let run_dump which variant =
  Result.map
    (fun b ->
      let c = Core.Pipeline.compile b.prog in
      let p = List.assoc variant (Core.Pipeline.variants c) in
      print_endline (Ir.Pretty.prog_to_string p))
    (find_bench which)

(* ---- bench ------------------------------------------------------- *)

(* The bench-trajectory gate: emit a fresh BENCH.json (or reuse one via
   [--current]) and, with [--check], compare it against the committed
   baseline.  Regressions - modeled times above tolerance, growing
   allocation counts or peak footprints - exit nonzero; the textual
   diff report goes to stdout and, with [--report], to a file CI can
   upload as an artifact.  Refresh the baseline with
   `repro bench -o bench/baseline.json`. *)

(* [--check], [--baseline], [--current] and [--report], shared by the
   bench and certificate gates *)
type gate_args = {
  check : bool;
  baseline : string;
  current : string option;
  report : string option;
}

let run_bench s (g : gate_args) tolerance out order_check =
  Symalg.Prover.set_budget s.budget;
  let* cur_s =
    match g.current with
    | Some path -> read_file path
    | None ->
        Symalg.Prover.reset_stats ();
        let outcomes =
          List.map
            (fun b ->
              Printf.printf "bench %-14s running...\n%!" b.name;
              (b, run_suite s b))
            benches
        in
        let json = doc (bench_record outcomes) in
        if out <> None || not g.check then begin
          let path = Option.value out ~default:(default_bench_json_name ()) in
          write_file path json;
          Printf.printf "wrote %s\n" path
        end;
        Ok json
  in
  match order_check with
  (* the pack-order A/B: the record at hand is the colour run; the
     [--order-check] file is the first-fit run of the same tree *)
  | Some path ->
      run_gate ~label:"pack-order gate" ~role:"firstfit record" ~path
        ~report:g.report
        (fun firstfit colour ->
          Benchsuite.Benchjson.pack_order_gate ~firstfit ~colour ())
        cur_s
  | None when g.check ->
      run_gate ~label:"bench gate" ~role:"baseline" ~path:g.baseline
        ~report:g.report
        (fun baseline current ->
          Benchsuite.Benchjson.gate ~tolerance ~baseline ~current ())
        cur_s
  | None -> Ok ()

(* ---- certify ----------------------------------------------------- *)

(* Translation validation of the optimization pipeline: compile with
   ~certify:true so both rewriting passes emit per-rewrite proof
   obligations, then report what the independent checker re-derived.
   Any refuted obligation exits nonzero, attributed to its pass and
   rewrite like a lint error.  The combined document carries the
   prover's memo-cache effectiveness over the whole run, mirroring the
   "prover" object of BENCH.json: the checker leans on the same
   memoized queries, so a cache collapse shows up here first. *)

let run_certify which options reuse pack verbose_reports json out
    (g : gate_args) =
  Symalg.Prover.reset_stats ();
  let* bs = select which in
  (* With --json to stdout, keep stdout pure JSON (pipeable into
     bench/certs-baseline.json): every human-readable line - summaries,
     -r reports, "wrote" confirmations - goes to stderr.  With --check,
     stdout carries the gate report instead. *)
  let stdout_is_json = json && out = None && not g.check in
  let human : ('a, out_channel, unit) format -> 'a =
    if stdout_is_json then Printf.eprintf else Printf.printf
  in
  (* Compile + check every selected benchmark, returning the
     per-benchmark JSON documents.  With [strict], the first refuted
     obligation is an error; under --check the gate attributes failures
     instead, so generation never aborts. *)
  let certify_docs ~strict () =
    let all_ok = ref true in
    let docs =
      List.map
        (fun b ->
          let c =
            Core.Pipeline.compile ~options ~reuse ~pack ~certify:true b.prog
          in
          let certs = c.Core.Pipeline.certs in
          List.iter
            (fun (_, r) ->
              if verbose_reports || not (Core.Certify.ok r) then
                if json || g.check then
                  Fmt.epr "%a@.@." Core.Certify.pp_report r
                else Fmt.pr "%a@.@." Core.Certify.pp_report r)
            certs;
          (match Core.Pipeline.first_cert_failure certs with
          | None ->
              let tally f = List.fold_left (fun n (_, r) -> n + f r) 0 certs in
              human
                "%-14s %d obligations: %d proved, %d concretized, 0 failed\n"
                b.name
                (tally (fun (r : Core.Certify.report) ->
                     r.Core.Certify.emitted))
                (tally (fun r -> r.Core.Certify.proved))
                (tally (fun r -> r.Core.Certify.concretized))
          | Some (pass, ch) ->
              Fmt.epr "%-14s refuted obligation in %s: %a@." b.name pass
                Core.Certify.pp_checked ch;
              all_ok := false);
          Benchsuite.Benchjson.cert_bench b.name certs)
        bs
    in
    if !all_ok || not strict then Ok docs else Error "certification failed"
  in
  let cert_doc docs =
    doc (Benchsuite.Benchjson.cert_doc docs (Symalg.Prover.stats ()))
  in
  if g.check then
    let* cur_s =
      match g.current with
      | Some path -> read_file path
      | None -> Result.map cert_doc (certify_docs ~strict:false ())
    in
    run_gate ~label:"cert gate" ~role:"baseline" ~path:g.baseline
      ~hint:
        "refresh with: dune exec bin/repro.exe -- certify all --json > \
         bench/certs-baseline.json\n"
      ~report:g.report
      (fun baseline current ->
        Benchsuite.Benchjson.cert_gate ~baseline ~current ())
      cur_s
  else
    let* docs = certify_docs ~strict:true () in
    (if json then
       match out with
       | None -> print_string (cert_doc docs)
       | Some dir ->
           ensure_dir dir;
           List.iter2
             (fun b d ->
               let path = Filename.concat dir (b.name ^ ".cert.json") in
               write_file path (doc d);
               Printf.eprintf "%-14s wrote %s\n" b.name path)
             bs docs);
    Ok ()

(* ---- chaos ------------------------------------------------------- *)

(* The seeded fault-injection campaign (Benchsuite.Chaosdrive): inject
   every fault class of the taxonomy into each selected benchmark and
   check the three fail-safe invariants - no crash, bit-equal results,
   every degraded run blames its fault and names its fallback.  Any
   violation exits nonzero; --json writes the campaign record CI
   archives. *)

let run_chaos which seed rounds json out =
  let* bs = select which in
  let targets =
    List.map (fun b -> (b.name, b.prog, Lazy.force b.small_args)) bs
  in
  let c = Benchsuite.Chaosdrive.run ~seed ~rounds targets in
  (* keep stdout pure JSON when the record goes there *)
  let human = if json && out = None then prerr_string else print_string in
  human (Benchsuite.Chaosdrive.report c);
  (if json then
     let record = doc (Benchsuite.Chaosdrive.json c) in
     match out with
     | None -> print_string record
     | Some dir ->
         ensure_dir dir;
         let path = Filename.concat dir "campaign.json" in
         write_file path record;
         Printf.printf "wrote %s\n" path);
  if Benchsuite.Chaosdrive.ok c then Ok ()
  else
    Error
      (Printf.sprintf "chaos campaign: %d invariant violation(s)"
         (List.length (Benchsuite.Chaosdrive.violations c)))

(* ---- prove-nw ---------------------------------------------------- *)

let run_prove_nw () =
  let module P = Symalg.Poly in
  let module Pr = Symalg.Prover in
  let c = P.const in
  let ctx = Pr.empty in
  let ctx = Pr.add_range ctx "q" ~lo:(c 2) () in
  let ctx = Pr.add_range ctx "b" ~lo:(c 2) () in
  let ctx = Pr.add_range ctx "i" ~lo:(c 0) ~hi:(P.sub (P.var "q") P.one) () in
  let ctx = Pr.add_eq ctx "n" (P.add (P.mul (P.var "q") (P.var "b")) P.one) in
  let n = P.var "n" and b = P.var "b" and i = P.var "i" in
  let nb_b = P.sub (P.mul n b) b in
  let dim = Lmads.Lmad.dim in
  let w =
    Lmads.Lmad.make
      (P.sum [ P.mul i b; n; P.one ])
      [ dim (P.add i P.one) nb_b; dim b n; dim b P.one ]
  in
  let rv =
    Lmads.Lmad.make (P.mul i b) [ dim (P.add i P.one) nb_b; dim (P.add b P.one) n ]
  in
  let rh =
    Lmads.Lmad.make (P.add (P.mul i b) P.one)
      [ dim (P.add i P.one) nb_b; dim b P.one ]
  in
  Fmt.pr "Assumptions: n = q*b + 1, q >= 2, b >= 2, 0 <= i <= q-1@.";
  Fmt.pr "W      = %a@." Lmads.Lmad.pp w;
  Fmt.pr "Rvert  = %a@." Lmads.Lmad.pp rv;
  Fmt.pr "Rhoriz = %a@.@." Lmads.Lmad.pp rh;
  Fmt.pr "W  # Rvert : %b@." (Lmads.Nonoverlap.disjoint ctx w rv);
  Fmt.pr "W  # Rhoriz: %b@." (Lmads.Nonoverlap.disjoint ctx w rh);
  Fmt.pr "W  # W     : %b (must stay unproven)@."
    (Lmads.Nonoverlap.disjoint ctx w w);
  Ok ()

(* ---- cmdliner ---------------------------------------------------- *)

let to_exit = function
  | Ok () -> 0
  | Error e ->
      prerr_endline ("error: " ^ e);
      1

let bench_arg =
  Arg.(value & pos 0 string "all" & info [] ~docv:"BENCH")

(* ---- shared flags ---- *)

let flag names doc = Arg.(value & flag & info names ~doc)
let json_flag doc = flag [ "json" ] doc
let reports_flag doc = flag [ "r"; "reports" ] doc

let out_opt ~docv doc =
  Arg.(value & opt (some string) None & info [ "o"; "out" ] ~docv ~doc)

(* Short-circuiting options as CLI flags, shared by the subcommands
   that run the pipeline. *)
let options_term =
  let verbose =
    flag [ "v"; "verbose" ]
      "Trace circuit attempts and print full pass statistics."
  in
  let no_refinement =
    flag [ "no-refinement" ]
      "Disable the per-iteration / per-thread refinements of section V-B \
       (ablation)."
  in
  let split_depth =
    Arg.(
      value
      & opt int Core.Shortcircuit.default_options.Core.Shortcircuit.split_depth
      & info [ "split-depth" ] ~docv:"N"
          ~doc:
            "Recursion budget of the dimension-splitting heuristic in the \
             non-overlap test (0 disables splitting).")
  in
  Term.(
    const (fun verbose no_refinement split_depth ->
        {
          Core.Shortcircuit.verbose;
          enable_refinement = not no_refinement;
          split_depth;
        })
    $ verbose $ no_refinement $ split_depth)

(* Memory-reuse options: [--no-reuse] disables the pass (the reuse
   variant then degenerates to a clone of the short-circuited one);
   the pass's trace output follows the global verbosity. *)
let reuse_term =
  let no_reuse =
    flag [ "no-reuse" ]
      "Disable the memory-block reuse pass (the third pipeline variant \
       becomes a copy of the short-circuited one)."
  in
  Term.(
    const (fun no_reuse (options : Core.Shortcircuit.options) ->
        if no_reuse then Core.Reuse.disabled
        else
          {
            Core.Reuse.default_options with
            Core.Reuse.verbose = options.Core.Shortcircuit.verbose;
          })
    $ no_reuse $ options_term)

(* [--no-pack] disables the offset-based arena packing pass (the
   fourth pipeline variant then degenerates to a clone of the reused
   one) - the A/B baseline for the packing effect. *)
let pack_term =
  let no_pack =
    flag [ "no-pack" ]
      "Disable the offset-based arena packing pass (the fourth pipeline \
       variant becomes a copy of the memory-reused one)."
  in
  let pack_order =
    let order =
      Arg.enum
        [ ("colour", Core.Pack.Colour); ("firstfit", Core.Pack.Firstfit) ]
    in
    Arg.(
      value
      & opt order Core.Pack.Colour
      & info [ "pack-order" ] ~docv:"ORDER"
          ~doc:
            "Arena placement order: $(b,colour) (interval-graph colouring \
             with size-sorted tie-breaking; falls back to first-fit unless \
             provably no larger) or $(b,firstfit) (emission order).")
  in
  Term.(
    const (fun no_pack order (options : Core.Shortcircuit.options) ->
        if no_pack then Core.Pack.disabled
        else
          {
            Core.Pack.default_options with
            Core.Pack.verbose = options.Core.Shortcircuit.verbose;
            Core.Pack.order;
          })
    $ no_pack $ pack_order $ options_term)

(* [--no-pool] reverts the allocator model to all-miss: every top-level
   allocation is charged [alloc_miss_cost], as before the pool existed
   (the A/B baseline for the pool's latency effect). *)
let pool_term =
  let no_pool =
    flag [ "no-pool" ]
      "Disable the size-class allocation pool: every top-level allocation \
       is charged the full device-allocation cost (A/B baseline)."
  in
  Term.(const (fun no_pool -> not no_pool) $ no_pool)

(* [--pool-cap BYTES] bounds the pool's device footprint: a miss that
   would grow past the cap first evicts cached free blocks, each priced
   as a synchronizing device free.  The bench gate additionally checks
   high_water <= cap on every recorded pool. *)
let pool_cap_term =
  Arg.(
    value
    & opt (some int) None
    & info [ "pool-cap" ] ~docv:"BYTES"
        ~doc:
          "Cap the allocation pool's total device memory at $(docv): \
           cache evictions forced by the cap are priced as \
           synchronizing device frees.  Live memory is never refused.")

(* The degradation ladder is on by default for table/bench runs: a
   crashing pass, lint error, or refuted certificate degrades the
   affected variant (recorded in the recovery report, nonzero exit)
   instead of aborting the whole run.  [--no-fail-safe] restores
   fail-fast aborts for debugging a fault at its source. *)
let fail_safe_term =
  Arg.(
    value
    & vflag true
        [
          ( true,
            info [ "fail-safe" ]
              ~doc:
                "Contain pass crashes, lint errors, and refuted \
                 certificates by degrading to the last good pipeline \
                 variant (the default)." );
          ( false,
            info [ "no-fail-safe" ]
              ~doc:
                "Abort on the first pipeline fault instead of degrading \
                 (fail-fast debugging)." );
        ])

(* [--prover-budget N] bounds the symbolic prover's work per public
   query (per non-overlap test, for the queries one makes); exhausted
   queries return Undecided, so the affected rewrite
   is skipped - never an abort.  Exhaustion counts land in the stats
   and in BENCH.json's prover object. *)
let prover_budget_term =
  let steps =
    Arg.(
      value
      & opt int (-1)
      & info [ "prover-budget" ] ~docv:"STEPS"
          ~doc:
            "Bound the prover's nonnegativity eliminations per query \
             (per non-overlap test, for the queries it makes) at \
             $(docv) (-1 = unlimited, 0 = every obligation Undecided).  \
             Exhaustion soundly skips the rewrite and is counted in the \
             prover stats.")
  in
  Term.(
    const (fun s -> { Symalg.Prover.unlimited with Symalg.Prover.b_steps = s })
    $ steps)

(* Everything a table or bench run compiles and prices with. *)
let suite_term =
  Term.(
    const (fun options reuse pack pool pool_cap fail_safe budget ->
        { options; reuse; pack; pool; pool_cap; fail_safe; budget })
    $ options_term $ reuse_term $ pack_term $ pool_term $ pool_cap_term
    $ fail_safe_term $ prover_budget_term)

let gate_term ~check_doc ~baseline ~baseline_doc ~current_doc =
  let file name doc =
    Arg.(value & opt (some string) None & info [ name ] ~docv:"FILE" ~doc)
  in
  Term.(
    const (fun check baseline current report ->
        { check; baseline; current; report })
    $ flag [ "check" ] check_doc
    $ Arg.(
        value & opt string baseline
        & info [ "baseline" ] ~docv:"FILE" ~doc:baseline_doc)
    $ file "current" current_doc
    $ file "report" "Also write the gate's diff report to $(docv).")

let table_cmd =
  let bench_json =
    flag [ "bench-json" ]
      "Write a machine-readable performance record (modeled times, \
       impacts, footprints, pool behaviour, compile times, reuse \
       statistics, prover cache rates) after the tables."
  in
  let out =
    out_opt ~docv:"FILE"
      "With $(b,--bench-json): target file (default BENCH_<date>.json)."
  in
  Cmd.v (Cmd.info "table" ~doc:"Regenerate a paper table (1-7 or name or all)")
    Term.(
      const (fun w s bj out -> to_exit (run_table w s bj out))
      $ bench_arg $ suite_term $ bench_json $ out)

let validate_cmd =
  Cmd.v
    (Cmd.info "validate"
       ~doc:"Full-mode validation against the reference interpreter")
    Term.(const (fun w -> to_exit (run_validate w)) $ bench_arg)

let dump_cmd =
  let variant =
    let names = Core.Pipeline.variant_names in
    Arg.(
      value
      & opt (enum (List.map (fun v -> (v, v)) names)) (List.hd names)
      & info [ "variant" ] ~docv:"NAME"
          ~doc:
            (Printf.sprintf "The pipeline variant to dump: %s."
               (String.concat ", " names)))
  in
  Cmd.v (Cmd.info "dump" ~doc:"Print a benchmark's memory-annotated IR")
    Term.(const (fun w v -> to_exit (run_dump w v)) $ bench_arg $ variant)

let lint_cmd =
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Verify the memory IR of a benchmark (or all) after every \
          pipeline pass")
    Term.(
      const (fun w o p r -> to_exit (run_lint w o p r))
      $ bench_arg $ options_term $ pack_term
      $ reports_flag "Print the full per-stage report even when clean.")

let trace_cmd =
  let diff =
    flag [ "diff" ]
      "Compare the unopt/opt/reuse/pack traces' logical event skeletons; \
       the optimizations may move or elide storage but must not change \
       the event sequence."
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Execute a benchmark (or all) in full mode with event tracing and \
          cross-check the dynamic footprints against the static LMAD \
          annotations")
    Term.(
      const (fun w j d o -> to_exit (run_trace w j d o))
      $ bench_arg
      $ json_flag "Emit the raw event logs as JSON instead of the summary."
      $ diff
      $ out_opt ~docv:"DIR"
          "With $(b,--json): write one $(i,BENCH).json per benchmark into \
           $(docv) instead of stdout.")

let bench_cmd =
  let gate =
    gate_term
      ~check_doc:
        "Compare the performance record against $(b,--baseline) and exit \
         nonzero on any regression (time above tolerance, growing \
         allocation count or peak footprint)."
      ~baseline:"bench/baseline.json"
      ~baseline_doc:"Committed baseline record to gate against."
      ~current_doc:
        "Gate an existing record instead of re-running the suite (e.g. the \
         BENCH.json a previous CI step emitted)."
  in
  let tolerance =
    Arg.(
      value
      & opt float Benchsuite.Benchjson.default_tolerance
      & info [ "tolerance" ] ~docv:"FRAC"
          ~doc:
            "Relative tolerance for modeled times (default 0.05 = 5%). \
             Footprint counters are exact and get no tolerance.")
  in
  let out =
    out_opt ~docv:"FILE"
      "Write the fresh record to $(docv) (default BENCH_<date>.json when \
       run without $(b,--check); refresh the baseline with -o \
       bench/baseline.json)."
  in
  let order_check =
    Arg.(
      value
      & opt (some string) None
      & info [ "order-check" ] ~docv:"FILE"
          ~doc:
            "Pack-order A/B gate: treat the record at hand (fresh or \
             $(b,--current)) as the $(b,colour) run and compare it against \
             the $(b,firstfit) record in $(docv) - colour's executed arena \
             extent may never exceed first-fit's, and its planner coverage \
             may not shrink.  Exits nonzero on any breach.")
  in
  Cmd.v
    (Cmd.info "bench"
       ~doc:
         "Emit the machine-readable performance record and optionally gate \
          it against a committed baseline")
    Term.(
      const (fun s g t out oc -> to_exit (run_bench s g t out oc))
      $ suite_term $ gate $ tolerance $ out $ order_check)

let certify_cmd =
  let gate =
    gate_term
      ~check_doc:
        "Compare the certificates against $(b,--baseline) and exit nonzero \
         on any regression (lost obligation, weakened verdict, dropped \
         emitted/proved count, or any currently failed obligation)."
      ~baseline:"bench/certs-baseline.json"
      ~baseline_doc:"Committed certificate baseline to gate against."
      ~current_doc:
        "Gate an existing combined certificate document instead of \
         re-certifying (e.g. the output a previous CI step emitted)."
  in
  Cmd.v
    (Cmd.info "certify"
       ~doc:
         "Re-derive every optimization rewrite's proof obligations with the \
          independent certificate checker (translation validation); exit \
          nonzero on any refuted obligation")
    Term.(
      const (fun w o ru pk r j out g ->
          to_exit (run_certify w o ru pk r j out g))
      $ bench_arg $ options_term $ reuse_term $ pack_term
      $ reports_flag "Print the full per-pass certificate even when clean."
      $ json_flag "Emit the checked certificates as JSON instead of a summary."
      $ out_opt ~docv:"DIR"
          "With $(b,--json): write one $(i,BENCH).cert.json per benchmark \
           into $(docv) instead of stdout."
      $ gate)

let chaos_cmd =
  let seed =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"N"
          ~doc:
            "PRNG seed for the injection sites; the campaign is \
             reproducible from its seed.")
  in
  let rounds =
    Arg.(
      value & opt int 1
      & info [ "rounds" ] ~docv:"N"
          ~doc:
            "Repeat the per-benchmark injection draws $(docv) times for \
             wider site coverage.")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Seeded fault-injection campaign: inject prover exhaustion, pass \
          crashes, forged certificates, device OOM, and pool-cap pressure \
          into each benchmark; exit nonzero unless every run stays \
          crash-free, bit-equal to the reference, and blames its fault")
    Term.(
      const (fun w s r j o -> to_exit (run_chaos w s r j o))
      $ bench_arg $ seed $ rounds
      $ json_flag "Emit the campaign record as JSON (the CI artifact)."
      $ out_opt ~docv:"DIR"
          "With $(b,--json): write campaign.json into $(docv) instead of \
           stdout.")

let prove_cmd =
  Cmd.v (Cmd.info "prove-nw" ~doc:"Discharge the Fig. 9 proof obligation")
    Term.(const (fun () -> to_exit (run_prove_nw ())) $ const ())

let () =
  let doc = "Memory Optimizations in an Array Language (SC22) - reproduction" in
  exit
    (Cmd.eval'
       (Cmd.group (Cmd.info "repro" ~doc)
          [
            table_cmd; validate_cmd; lint_cmd; trace_cmd; dump_cmd; bench_cmd;
            certify_cmd; chaos_cmd; prove_cmd;
          ]))
