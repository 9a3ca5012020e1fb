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

let json_escape s =
  String.concat ""
    (List.map
       (function
         | '"' -> "\\\"" | '\\' -> "\\\\" | c -> String.make 1 c)
       (List.init (String.length s) (String.get s)))

(* The prover's memoization effectiveness and budget pressure, shared
   by BENCH.json and the combined certificate document.  A nonzero
   [budget_exhausted] means some nonnegativity queries were truncated
   by the step/memo budget or deadline - sound (the affected rewrites
   were skipped) but a signal the budget is too tight for the suite. *)
let prover_json (p : Symalg.Prover.stats) =
  let rate h m =
    if h + m = 0 then 0. else float_of_int h /. float_of_int (h + m)
  in
  Printf.sprintf
    "\"prover\":{\"sat_hits\":%d,\"sat_misses\":%d,\"sat_resets\":%d,\"sat_hit_rate\":%.4f,\"nonneg_hits\":%d,\"nonneg_misses\":%d,\"nonneg_resets\":%d,\"nonneg_hit_rate\":%.4f,\"budget_exhausted\":%d}"
    p.Symalg.Prover.sat_hits p.Symalg.Prover.sat_misses
    p.Symalg.Prover.sat_resets
    (rate p.Symalg.Prover.sat_hits p.Symalg.Prover.sat_misses)
    p.Symalg.Prover.nonneg_hits p.Symalg.Prover.nonneg_misses
    p.Symalg.Prover.nonneg_resets
    (rate p.Symalg.Prover.nonneg_hits p.Symalg.Prover.nonneg_misses)
    p.Symalg.Prover.budget_exhausted

(* One machine-readable performance record for the whole suite:
   per-benchmark modeled times and impacts per (device, dataset),
   memory footprints of every variant, compile times, reuse-pass
   statistics, and the prover's memoization effectiveness. *)
let bench_json_of (outcomes : (bench * Benchsuite.Runner.outcome) list)
    (pstats : Symalg.Prover.stats) : string =
  let buf = Buffer.create 8192 in
  let bench_obj (b, (o : Benchsuite.Runner.outcome)) =
    let c = o.Benchsuite.Runner.compiled in
    let fields fmt key l =
      String.concat ","
        (List.map (fun (v, x) -> Printf.sprintf fmt (key v) x) l)
    in
    let rows =
      String.concat ","
        (List.map
           (fun (r : Benchsuite.Table.row) ->
             (* the opt variant's impact is the paper's own column *)
             Printf.sprintf
               "{\"device\":\"%s\",\"dataset\":\"%s\",\"ref_ms\":%g,%s,%s}"
               (json_escape r.Benchsuite.Table.device)
               (json_escape r.Benchsuite.Table.dataset)
               (r.Benchsuite.Table.ref_s *. 1e3)
               (fields "\"%s_ms\":%g" Fun.id (Benchsuite.Table.ms r))
               (fields "\"%s\":%g"
                  (function "opt" -> "impact" | v -> v ^ "_impact")
                  (Benchsuite.Table.impacts_of r)))
           o.Benchsuite.Runner.table.Benchsuite.Table.rows)
    in
    let fp (f : Benchsuite.Runner.footprint) =
      let pool =
        match f.Benchsuite.Runner.f_pool with
        | Some ps ->
            let cap =
              match ps.Gpu.Device.Pool.p_cap with
              | Some c ->
                  Printf.sprintf ",\"cap\":%g,\"evictions\":%d" c
                    ps.Gpu.Device.Pool.p_evictions
              | None -> ""
            in
            Printf.sprintf
              ",\"pool\":{\"hits\":%d,\"misses\":%d,\"device_bytes\":%g,\"high_water_bytes\":%g,\"fragmentation\":%.4f%s}"
              f.Benchsuite.Runner.f_pool_hits
              f.Benchsuite.Runner.f_pool_misses
              ps.Gpu.Device.Pool.p_device_bytes
              ps.Gpu.Device.Pool.p_high_water
              ps.Gpu.Device.Pool.p_fragmentation cap
        | None -> ""
      in
      Printf.sprintf
        "{\"allocs\":%d,\"arena_allocs\":%d,\"arena_bytes\":%g,\"scratch\":%d,\"alloc_bytes\":%g,\"peak_bytes\":%g,\"traffic_bytes\":%g%s}"
        f.Benchsuite.Runner.f_allocs f.Benchsuite.Runner.f_arena_allocs
        f.Benchsuite.Runner.f_arena_bytes f.Benchsuite.Runner.f_scratch
        f.Benchsuite.Runner.f_alloc_bytes f.Benchsuite.Runner.f_peak_bytes
        f.Benchsuite.Runner.f_traffic_bytes pool
    in
    let fps =
      String.concat ","
        (List.map
           (fun (label, fs) ->
             Printf.sprintf "{\"dataset\":\"%s\",%s}" (json_escape label)
               (fields "\"%s\":%s" Fun.id
                  (List.map (fun (v, f) -> (v, fp f)) fs)))
           o.Benchsuite.Runner.footprints)
    in
    let rst = c.Core.Pipeline.reuse_stats in
    let pst = c.Core.Pipeline.pack_stats in
    (* per-pass obligation counts of the translation-validation run that
       rides along with every table compile *)
    let certify =
      String.concat ","
        (List.map
           (fun (pass, (r : Core.Certify.report)) ->
             Printf.sprintf
               "\"%s\":{\"emitted\":%d,\"proved\":%d,\"concretized\":%d,\"failed\":%d}"
               (json_escape pass) r.Core.Certify.emitted
               r.Core.Certify.proved r.Core.Certify.concretized
               r.Core.Certify.failed)
           c.Core.Pipeline.certs)
    in
    Printf.sprintf
      "{\"name\":\"%s\",\"table\":%d,\"rows\":[%s],\"footprints\":[%s],\"compile_s\":{\"base\":%g,\"shortcircuit\":%g,\"reuse\":%g,\"pack\":%g},\"dead_allocs\":%d,\"reuse_dead_allocs\":%d,\"pack_dead_allocs\":%d,\"reuse_stats\":{\"candidates\":%d,\"coalesced\":%d,\"size_proofs\":%d,\"chain_links\":%d,\"rotated\":%d,\"hoisted\":%d},\"pack_stats\":{\"arenas\":%d,\"packed\":%d,\"unpacked\":%d,\"offset_proofs\":%d,\"holes\":%d,\"promoted\":%d},\"certify\":{%s}}"
      (json_escape b.name) b.table_no rows fps c.Core.Pipeline.time_base
      c.Core.Pipeline.time_sc c.Core.Pipeline.time_reuse
      c.Core.Pipeline.time_pack c.Core.Pipeline.dead_allocs
      c.Core.Pipeline.reuse_dead_allocs c.Core.Pipeline.pack_dead_allocs
      rst.Core.Reuse.candidates rst.Core.Reuse.coalesced
      rst.Core.Reuse.size_proofs rst.Core.Reuse.chain_links
      rst.Core.Reuse.rotated rst.Core.Reuse.hoisted pst.Core.Pack.arenas
      pst.Core.Pack.packed pst.Core.Pack.unpacked
      pst.Core.Pack.offset_proofs pst.Core.Pack.holes
      pst.Core.Pack.promoted certify
  in
  let date =
    let t = Unix.localtime (Unix.time ()) in
    Printf.sprintf "%04d-%02d-%02d" (t.Unix.tm_year + 1900)
      (t.Unix.tm_mon + 1) t.Unix.tm_mday
  in
  Buffer.add_string buf
    (Printf.sprintf "{\"date\":\"%s\",\"benchmarks\":[%s],"
       date
       (String.concat "," (List.map bench_obj outcomes)));
  Buffer.add_string buf (prover_json pstats ^ "}");
  Buffer.contents buf

let default_bench_json_name () =
  let t = Unix.localtime (Unix.time ()) in
  Printf.sprintf "BENCH_%04d-%02d-%02d.json" (t.Unix.tm_year + 1900)
    (t.Unix.tm_mon + 1) t.Unix.tm_mday

let run_table which options reuse pack pool pool_cap fail_safe budget
    bench_json out =
  Symalg.Prover.set_budget budget;
  Symalg.Prover.reset_stats ();
  let run b =
    let o = b.table ~options ~reuse ~pack ~pool ?pool_cap ~fail_safe () in
    print_string (Benchsuite.Table.to_string o.Benchsuite.Runner.table);
    let st = o.Benchsuite.Runner.compiled.Core.Pipeline.stats in
    let rst = o.Benchsuite.Runner.compiled.Core.Pipeline.reuse_stats in
    let pst = o.Benchsuite.Runner.compiled.Core.Pipeline.pack_stats in
    if options.Core.Shortcircuit.verbose then begin
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
    pp_footprints ~verbose:options.Core.Shortcircuit.verbose o;
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
  let finish outcomes =
    if bench_json then begin
      let path = Option.value out ~default:(default_bench_json_name ()) in
      let json = bench_json_of outcomes (Symalg.Prover.stats ()) in
      let oc = open_out path in
      output_string oc json;
      output_char oc '\n';
      close_out oc;
      Printf.printf "wrote %s\n" path
    end
  in
  let degraded b (o : Benchsuite.Runner.outcome) =
    match o.Benchsuite.Runner.compiled.Core.Pipeline.recovery with
    | [] -> None
    | r :: _ ->
        Some
          (Printf.sprintf "%s degraded (%s)" b.name
             (Core.Fault.layer r.Core.Pipeline.r_fault))
  in
  match which with
  | "all" ->
      (* Aggregate faults across the suite instead of dying on the
         first one: every benchmark runs, every fault is named, and
         any degradation or failure makes the exit nonzero. *)
      let results =
        List.map
          (fun b ->
            match run b with
            | o -> (b, Ok o)
            | exception e ->
                Printf.printf "bench %-14s FAILED: %s\n\n" b.name
                  (Printexc.to_string e);
                (b, Error (Printexc.to_string e)))
          benches
      in
      let outcomes =
        List.filter_map
          (function b, Ok o -> Some (b, o) | _, Error _ -> None)
          results
      in
      finish outcomes;
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
  | s ->
      Result.bind (find_bench s) (fun b ->
          let o = run b in
          finish [ (b, o) ];
          match degraded b o with None -> Ok () | Some msg -> Error msg)

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
  match which with
  | "all" ->
      let ok = List.for_all validate benches in
      if ok then Ok () else Error "validation failed"
  | s ->
      Result.bind (find_bench s) (fun b ->
          if validate b then Ok () else Error "validation failed")

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
  match which with
  | "all" ->
      let ok = List.fold_left (fun ok b -> lint b && ok) true benches in
      if ok then Ok () else Error "lint failed"
  | s ->
      Result.bind (find_bench s) (fun b ->
          if lint b then Ok () else Error "lint failed")

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

let traces_json (ts : (string * Benchsuite.Runner.traced) list) =
  Printf.sprintf "{\"clean\": %b, %s}" (traces_clean ts)
    (String.concat ", "
       (List.map
          (fun (v, (t : Benchsuite.Runner.traced)) ->
            Printf.sprintf "\"%s\": %s" v
              (Core.Trace.to_json t.Benchsuite.Runner.trace))
          ts))

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
            if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
            let path = Filename.concat dir (b.name ^ ".json") in
            let oc = open_out path in
            output_string oc s;
            output_char oc '\n';
            close_out oc;
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
  match which with
  | "all" ->
      let ok = List.fold_left (fun ok b -> trace b && ok) true benches in
      if ok then Ok () else Error "memtrace cross-check failed"
  | s ->
      Result.bind (find_bench s) (fun b ->
          if trace b then Ok () else Error "memtrace cross-check failed")

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

let read_file path =
  try
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    Ok s
  with Sys_error e -> Error e

let run_bench options reuse pack pool pool_cap fail_safe budget check
    baseline tolerance out current report order_check =
  Symalg.Prover.set_budget budget;
  let obtain_current () =
    match current with
    | Some path -> read_file path
    | None ->
        Symalg.Prover.reset_stats ();
        let outcomes =
          List.map
            (fun b ->
              Printf.printf "bench %-14s running...\n%!" b.name;
              (b, b.table ~options ~reuse ~pack ~pool ?pool_cap ~fail_safe ()))
            benches
        in
        let json = bench_json_of outcomes (Symalg.Prover.stats ()) in
        (match out with
        | Some path ->
            let oc = open_out path in
            output_string oc json;
            output_char oc '\n';
            close_out oc;
            Printf.printf "wrote %s\n" path
        | None ->
            if not check then begin
              let path = default_bench_json_name () in
              let oc = open_out path in
              output_string oc json;
              output_char oc '\n';
              close_out oc;
              Printf.printf "wrote %s\n" path
            end);
        Ok json
  in
  (* the pack-order A/B: the record at hand is the colour run; the
     [--order-check] file is the first-fit run of the same tree *)
  let order_gate cur_s =
    match order_check with
    | None -> Ok ()
    | Some ff_path ->
        Result.bind
          (Result.map_error
             (fun e -> Printf.sprintf "firstfit record %s: %s" ff_path e)
             (read_file ff_path))
          (fun ff_s ->
            Result.bind
              (Result.map_error
                 (fun e -> "firstfit parse error: " ^ e)
                 (Benchsuite.Benchjson.parse ff_s))
              (fun ff ->
                Result.bind
                  (Result.map_error
                     (fun e -> "current parse error: " ^ e)
                     (Benchsuite.Benchjson.parse cur_s))
                  (fun cur ->
                    let g =
                      Benchsuite.Benchjson.pack_order_gate ~firstfit:ff
                        ~colour:cur ()
                    in
                    let rep =
                      Benchsuite.Benchjson.report ~label:"pack-order gate" g
                    in
                    print_string rep;
                    (match report with
                    | Some path ->
                        let oc = open_out path in
                        output_string oc rep;
                        close_out oc;
                        Printf.printf "wrote %s\n" path
                    | None -> ());
                    if Benchsuite.Benchjson.ok g then Ok ()
                    else
                      Error
                        (Printf.sprintf
                           "pack-order gate failed: %d regression(s)"
                           (List.length g.Benchsuite.Benchjson.regressions)))))
  in
  Result.bind (obtain_current ()) (fun cur_s ->
      if order_check <> None then order_gate cur_s
      else if not check then Ok ()
      else
        Result.bind
          (Result.map_error
             (fun e -> Printf.sprintf "baseline %s: %s" baseline e)
             (read_file baseline))
          (fun base_s ->
            Result.bind
              (Result.map_error
                 (fun e -> "baseline parse error: " ^ e)
                 (Benchsuite.Benchjson.parse base_s))
              (fun base ->
                Result.bind
                  (Result.map_error
                     (fun e -> "current parse error: " ^ e)
                     (Benchsuite.Benchjson.parse cur_s))
                  (fun cur ->
                    let g =
                      Benchsuite.Benchjson.gate ~tolerance ~baseline:base
                        ~current:cur ()
                    in
                    let rep = Benchsuite.Benchjson.report g in
                    print_string rep;
                    (match report with
                    | Some path ->
                        let oc = open_out path in
                        output_string oc rep;
                        close_out oc;
                        Printf.printf "wrote %s\n" path
                    | None -> ());
                    if Benchsuite.Benchjson.ok g then Ok ()
                    else
                      Error
                        (Printf.sprintf "bench gate failed: %d regression(s)"
                           (List.length g.Benchsuite.Benchjson.regressions))))))

(* ---- certify ----------------------------------------------------- *)

(* Translation validation of the optimization pipeline: compile with
   ~certify:true so both rewriting passes emit per-rewrite proof
   obligations, then report what the independent checker re-derived.
   Any refuted obligation exits nonzero, attributed to its pass and
   rewrite like a lint error. *)

let cert_json_of name (certs : (string * Core.Certify.report) list) =
  Printf.sprintf "{\"name\":\"%s\",\"passes\":[%s]}" (json_escape name)
    (String.concat ","
       (List.map (fun (_, r) -> Core.Certify.json_of_report r) certs))

(* The combined certificate document carries the prover's memo-cache
   effectiveness over the whole certification run, mirroring the
   "prover" object of BENCH.json: the checker leans on the same
   memoized satisfiability/nonnegativity queries, so a cache collapse
   shows up here first. *)
let cert_doc_of (docs : string list) =
  Printf.sprintf "{\"benchmarks\":[%s],%s}" (String.concat "," docs)
    (prover_json (Symalg.Prover.stats ()))

let run_certify which options reuse pack verbose_reports json out check
    baseline current report_path =
  Symalg.Prover.reset_stats ();
  let selected =
    match which with
    | "all" -> Ok benches
    | s -> Result.map (fun b -> [ b ]) (find_bench s)
  in
  Result.bind selected (fun bs ->
      (* With --json to stdout, keep stdout pure JSON (pipeable into
         bench/certs-baseline.json): every human-readable line -
         summaries, -r reports, "wrote" confirmations - goes to
         stderr.  With --check, stdout carries the gate report
         instead. *)
      let stdout_is_json = json && out = None && not check in
      let human : ('a, out_channel, unit) format -> 'a =
        if stdout_is_json then Printf.eprintf else Printf.printf
      in
      (* Compile + check every selected benchmark, returning the
         per-benchmark JSON documents.  With [strict], the first
         refuted obligation is an error; under --check the gate
         attributes failures instead, so generation never aborts. *)
      let certify_docs ~strict () =
        let all_ok = ref true in
        let docs =
          List.map
            (fun b ->
              let c =
                Core.Pipeline.compile ~options ~reuse ~pack ~certify:true
                  b.prog
              in
              let certs = c.Core.Pipeline.certs in
              List.iter
                (fun (_, r) ->
                  if verbose_reports || not (Core.Certify.ok r) then
                    if json || check then
                      Fmt.epr "%a@.@." Core.Certify.pp_report r
                    else Fmt.pr "%a@.@." Core.Certify.pp_report r)
                certs;
              (match Core.Pipeline.first_cert_failure certs with
              | None ->
                  let tally f =
                    List.fold_left (fun n (_, r) -> n + f r) 0 certs
                  in
                  human
                    "%-14s %d obligations: %d proved, %d concretized, 0 \
                     failed\n"
                    b.name
                    (tally (fun (r : Core.Certify.report) ->
                         r.Core.Certify.emitted))
                    (tally (fun r -> r.Core.Certify.proved))
                    (tally (fun r -> r.Core.Certify.concretized))
              | Some (pass, ch) ->
                  Fmt.epr "%-14s refuted obligation in %s: %a@." b.name pass
                    Core.Certify.pp_checked ch;
                  all_ok := false);
              cert_json_of b.name certs)
            bs
        in
        if !all_ok || not strict then Ok docs
        else Error "certification failed"
      in
      if check then
        let obtain_current () =
          match current with
          | Some path -> read_file path
          | None -> Result.map cert_doc_of (certify_docs ~strict:false ())
        in
        Result.bind (obtain_current ()) (fun cur_s ->
            Result.bind
              (Result.map_error
                 (fun e -> Printf.sprintf "baseline %s: %s" baseline e)
                 (read_file baseline))
              (fun base_s ->
                Result.bind
                  (Result.map_error
                     (fun e -> "baseline parse error: " ^ e)
                     (Benchsuite.Benchjson.parse base_s))
                  (fun base ->
                    Result.bind
                      (Result.map_error
                         (fun e -> "current parse error: " ^ e)
                         (Benchsuite.Benchjson.parse cur_s))
                      (fun cur ->
                        let g =
                          Benchsuite.Benchjson.cert_gate ~baseline:base
                            ~current:cur ()
                        in
                        let rep =
                          Benchsuite.Benchjson.report ~label:"cert gate" g
                        in
                        print_string rep;
                        if g.Benchsuite.Benchjson.notes <> [] then
                          print_string
                            "refresh with: dune exec bin/repro.exe -- \
                             certify all --json > bench/certs-baseline.json\n";
                        (match report_path with
                        | Some path ->
                            let oc = open_out path in
                            output_string oc rep;
                            close_out oc;
                            Printf.printf "wrote %s\n" path
                        | None -> ());
                        if Benchsuite.Benchjson.ok g then Ok ()
                        else
                          Error
                            (Printf.sprintf
                               "cert gate failed: %d regression(s)"
                               (List.length
                                  g.Benchsuite.Benchjson.regressions))))))
      else
        Result.bind (certify_docs ~strict:true ()) (fun docs ->
            (if json then
               match out with
               | None -> print_endline (cert_doc_of docs)
               | Some dir ->
                   if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
                   List.iter2
                     (fun b doc ->
                       let path =
                         Filename.concat dir (b.name ^ ".cert.json")
                       in
                       let oc = open_out path in
                       output_string oc doc;
                       output_char oc '\n';
                       close_out oc;
                       Printf.eprintf "%-14s wrote %s\n" b.name path)
                     bs docs);
            Ok ()))

(* ---- chaos ------------------------------------------------------- *)

(* The seeded fault-injection campaign (Benchsuite.Chaosdrive): inject
   every fault class of the taxonomy into each selected benchmark and
   check the three fail-safe invariants - no crash, bit-equal results,
   every degraded run blames its fault and names its fallback.  Any
   violation exits nonzero; --json writes the campaign record CI
   archives. *)

let run_chaos which seed rounds json out =
  let selected =
    match which with
    | "all" -> Ok benches
    | s -> Result.map (fun b -> [ b ]) (find_bench s)
  in
  Result.bind selected (fun bs ->
      let targets =
        List.map (fun b -> (b.name, b.prog, Lazy.force b.small_args)) bs
      in
      let c = Benchsuite.Chaosdrive.run ~seed ~rounds targets in
      (* keep stdout pure JSON when the record goes there *)
      let human = if json && out = None then prerr_string else print_string in
      human (Benchsuite.Chaosdrive.report c);
      (if json then
         match out with
         | None -> print_string (Benchsuite.Chaosdrive.json c)
         | Some dir ->
             if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
             let path = Filename.concat dir "campaign.json" in
             let oc = open_out path in
             output_string oc (Benchsuite.Chaosdrive.json c);
             close_out oc;
             Printf.printf "wrote %s\n" path);
      if Benchsuite.Chaosdrive.ok c then Ok ()
      else
        Error
          (Printf.sprintf "chaos campaign: %d invariant violation(s)"
             (List.length (Benchsuite.Chaosdrive.violations c))))

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

(* Short-circuiting options as CLI flags, shared by the subcommands
   that run the pipeline. *)
let options_term =
  let verbose =
    Arg.(
      value & flag
      & info [ "v"; "verbose" ]
          ~doc:"Trace circuit attempts and print full pass statistics.")
  in
  let no_refinement =
    Arg.(
      value & flag
      & info [ "no-refinement" ]
          ~doc:
            "Disable the per-iteration / per-thread refinements of \
             section V-B (ablation).")
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
    Arg.(
      value & flag
      & info [ "no-reuse" ]
          ~doc:
            "Disable the memory-block reuse pass (the third pipeline \
             variant becomes a copy of the short-circuited one).")
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
    Arg.(
      value & flag
      & info [ "no-pack" ]
          ~doc:
            "Disable the offset-based arena packing pass (the fourth \
             pipeline variant becomes a copy of the memory-reused one).")
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
    Arg.(
      value & flag
      & info [ "no-pool" ]
          ~doc:
            "Disable the size-class allocation pool: every top-level \
             allocation is charged the full device-allocation cost \
             (A/B baseline).")
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
   query; exhausted queries return Undecided, so the affected rewrite
   is skipped - never an abort.  Exhaustion counts land in the stats
   and in BENCH.json's prover object. *)
let prover_budget_term =
  let steps =
    Arg.(
      value
      & opt int (-1)
      & info [ "prover-budget" ] ~docv:"STEPS"
          ~doc:
            "Bound the prover's nonnegativity eliminations per query at \
             $(docv) (-1 = unlimited, 0 = every obligation Undecided).  \
             Exhaustion soundly skips the rewrite and is counted in the \
             prover stats.")
  in
  let deadline =
    Arg.(
      value
      & opt float 0.
      & info [ "prover-deadline" ] ~docv:"SECONDS"
          ~doc:
            "Wall-clock deadline per prover query (0 = none); expiring \
             counts as budget exhaustion.")
  in
  Term.(
    const (fun s d ->
        {
          Symalg.Prover.unlimited with
          Symalg.Prover.b_steps = s;
          Symalg.Prover.b_deadline = d;
        })
    $ steps $ deadline)

let table_cmd =
  let bench_json =
    Arg.(
      value & flag
      & info [ "bench-json" ]
          ~doc:
            "Write a machine-readable performance record (modeled times, \
             impacts, footprints, pool behaviour, compile times, reuse \
             statistics, prover cache rates) after the tables.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:
            "With $(b,--bench-json): target file (default \
             BENCH_<date>.json).")
  in
  Cmd.v (Cmd.info "table" ~doc:"Regenerate a paper table (1-7 or name or all)")
    Term.(
      const (fun w o r pk p pc fs pb bj out ->
          to_exit (run_table w o r pk p pc fs pb bj out))
      $ bench_arg $ options_term $ reuse_term $ pack_term $ pool_term
      $ pool_cap_term $ fail_safe_term $ prover_budget_term $ bench_json
      $ out)

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
  let reports =
    Arg.(
      value & flag
      & info [ "r"; "reports" ]
          ~doc:"Print the full per-stage report even when clean.")
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Verify the memory IR of a benchmark (or all) after every \
          pipeline pass")
    Term.(
      const (fun w o p r -> to_exit (run_lint w o p r))
      $ bench_arg $ options_term $ pack_term $ reports)

let trace_cmd =
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit the raw event logs as JSON instead of the summary.")
  in
  let diff =
    Arg.(
      value & flag
      & info [ "diff" ]
          ~doc:
            "Compare the unopt/opt/reuse/pack traces' logical event \
             skeletons; the optimizations may move or elide storage but \
             must not change the event sequence.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"DIR"
          ~doc:
            "With $(b,--json): write one $(i,BENCH).json per benchmark into \
             $(docv) instead of stdout.")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Execute a benchmark (or all) in full mode with event tracing and \
          cross-check the dynamic footprints against the static LMAD \
          annotations")
    Term.(
      const (fun w j d o -> to_exit (run_trace w j d o))
      $ bench_arg $ json $ diff $ out)

let bench_cmd =
  let check =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Compare the performance record against $(b,--baseline) and \
             exit nonzero on any regression (time above tolerance, \
             growing allocation count or peak footprint).")
  in
  let baseline =
    Arg.(
      value
      & opt string "bench/baseline.json"
      & info [ "baseline" ] ~docv:"FILE"
          ~doc:"Committed baseline record to gate against.")
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
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:
            "Write the fresh record to $(docv) (default BENCH_<date>.json \
             when run without $(b,--check); refresh the baseline with \
             -o bench/baseline.json).")
  in
  let current =
    Arg.(
      value
      & opt (some string) None
      & info [ "current" ] ~docv:"FILE"
          ~doc:
            "Gate an existing record instead of re-running the suite \
             (e.g. the BENCH.json a previous CI step emitted).")
  in
  let report =
    Arg.(
      value
      & opt (some string) None
      & info [ "report" ] ~docv:"FILE"
          ~doc:"Also write the gate's diff report to $(docv).")
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
      const (fun o r pk p pc fs pb c b t out cur rep oc ->
          to_exit (run_bench o r pk p pc fs pb c b t out cur rep oc))
      $ options_term $ reuse_term $ pack_term $ pool_term $ pool_cap_term
      $ fail_safe_term $ prover_budget_term $ check $ baseline $ tolerance
      $ out $ current $ report $ order_check)

let certify_cmd =
  let reports =
    Arg.(
      value & flag
      & info [ "r"; "reports" ]
          ~doc:"Print the full per-pass certificate even when clean.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit the checked certificates as JSON instead of a summary.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"DIR"
          ~doc:
            "With $(b,--json): write one $(i,BENCH).cert.json per benchmark \
             into $(docv) instead of stdout.")
  in
  let check =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Compare the certificates against $(b,--baseline) and exit \
             nonzero on any regression (lost obligation, weakened verdict, \
             dropped emitted/proved count, or any currently failed \
             obligation).")
  in
  let baseline =
    Arg.(
      value
      & opt string "bench/certs-baseline.json"
      & info [ "baseline" ] ~docv:"FILE"
          ~doc:"Committed certificate baseline to gate against.")
  in
  let current =
    Arg.(
      value
      & opt (some string) None
      & info [ "current" ] ~docv:"FILE"
          ~doc:
            "Gate an existing combined certificate document instead of \
             re-certifying (e.g. the output a previous CI step emitted).")
  in
  let report =
    Arg.(
      value
      & opt (some string) None
      & info [ "report" ] ~docv:"FILE"
          ~doc:"Also write the gate's diff report to $(docv).")
  in
  Cmd.v
    (Cmd.info "certify"
       ~doc:
         "Re-derive every optimization rewrite's proof obligations with the \
          independent certificate checker (translation validation); exit \
          nonzero on any refuted obligation")
    Term.(
      const (fun w o ru pk r j out c b cur rep ->
          to_exit (run_certify w o ru pk r j out c b cur rep))
      $ bench_arg $ options_term $ reuse_term $ pack_term $ reports $ json
      $ out $ check $ baseline $ current $ report)

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
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit the campaign record as JSON (the CI artifact).")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"DIR"
          ~doc:
            "With $(b,--json): write campaign.json into $(docv) instead \
             of stdout.")
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
      $ bench_arg $ seed $ rounds $ json $ out)

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
