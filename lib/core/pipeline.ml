(* The compilation pipeline, mirroring the memory stages of the paper's
   Futhark fork:

     source IR
       -> memory introduction (section IV)
       -> allocation hoisting (property 2 of section V)
       -> last-use analysis (footnote 18)
       -> array short-circuiting (section V)

   followed by memory-block reuse and arena packing.  [compile] runs
   the chain once and keeps one variant per rung of the ladder - unopt
   (memory-introduced, hoisted), opt (short-circuited), reuse and pack
   - plus pass statistics and compile times, so benchmarks can compare
   the variants and reproduce the compile-time-overhead observation of
   section V-D.  [variants] is the one list of the rungs' names and
   order. *)

open Ir.Ast

(* One contained fault: what failed, who is blamed, and the variant
   the compile fell back to (see docs/ROBUSTNESS.md). *)
type recovery = { r_fault : Fault.t; r_pass : string; r_fallback : string }

type compiled = {
  source : prog; (* pristine, memory-agnostic *)
  unopt : prog; (* memory-introduced + hoisted *)
  opt : prog; (* additionally short-circuited + dead allocs removed *)
  reuse : prog; (* additionally memory-block reused (third variant) *)
  pack : prog; (* additionally arena-packed (fourth variant) *)
  stats : Shortcircuit.stats;
  reuse_stats : Reuse.stats;
  pack_stats : Pack.stats;
  dead_allocs : int; (* allocations eliminated by short-circuiting *)
  reuse_dead_allocs : int; (* further allocations eliminated by reuse *)
  pack_dead_allocs : int; (* member allocations absorbed into arenas *)
  time_base : float; (* seconds: memory intro + hoisting *)
  time_sc : float; (* seconds: short-circuiting pass alone *)
  time_reuse : float; (* seconds: memory-block reuse pass alone *)
  time_pack : float; (* seconds: the packing pass alone *)
  lint : (string * Memlint.report) list;
      (* one memlint report per pipeline stage, in pass order; empty
         unless compiled with ~lint:true *)
  certs : (string * Certify.report) list;
      (* one checked certificate per pipeline pass (memintro, hoist,
         shortcircuit, cleanup, reuse, cleanup-reuse, pack,
         cleanup-pack), in pass order; empty unless compiled with
         ~certify:true *)
  recovery : recovery list;
      (* contained faults, in containment order; empty unless compiled
         with ~fail_safe:true (or nothing failed) *)
  prover_exhausted : int;
      (* prover queries truncated by the budget during this compile *)
}

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* Memory introduction + hoisting, no short-circuiting. *)
let to_memory_ir (p : prog) : prog =
  let p = Memintro.introduce (Ir.Clone.clone_prog p) in
  let p = Hoist.hoist p in
  ignore (Lastuse.annotate p);
  p

let compile ?(options = Shortcircuit.default_options)
    ?(reuse = Reuse.default_options) ?(pack = Pack.default_options)
    ?(lint = false) ?(certify = false) ?(fail_safe = false)
    (p : prog) : compiled =
  let reports = ref [] and certs = ref [] and recov = ref [] in
  let prover0 = (Symalg.Prover.stats ()).budget_exhausted in
  let crash_guard pass f =
    if not fail_safe then f ()
    else
      try f () with
      | Fault.Fault _ as e -> raise e
      | e -> Fault.fail (Fault.Pass_crash { pass; exn = Printexc.to_string e })
  in
  (* With ~lint:true the memory linter runs at every lint stage; the
     first stage whose report errors is the pass that introduced the
     violation (earlier stages were clean). *)
  let checkpoint stage q =
    if lint then begin
      let r = Memlint.check ~stage q in
      reports := (stage, r) :: !reports;
      match Memlint.errors r with
      | v :: _ when fail_safe ->
          let violation = Fmt.str "%a" Memlint.pp_violation v in
          Fault.fail (Fault.Lint_reject { pass = stage; violation })
      | _ -> ()
    end
  in
  (* One pass instance.  With ~certify:true the pass records its proof
     obligations, which the independent checker re-derives against the
     pass's own before/after pair - before cleanup, so the claims refer
     to programs in which orphaned allocations still exist.  [clock]
     accumulates the pass's own running time. *)
  let step ?stage ?(clock = ref 0.) pass f q =
    let cert =
      if certify then Some (Certify.recorder ~pass, Ir.Clone.clone_prog q)
      else None
    in
    let (q, x), dt =
      timed (fun () -> crash_guard pass (fun () -> f (Option.map fst cert) q))
    in
    clock := !clock +. dt;
    Option.iter (fun stage -> checkpoint stage q) stage;
    Option.iter
      (fun (r, pre) ->
        if Chaos.forging pass then Chaos.forge r;
        let report = Certify.check ~pass ~pre ~post:q (Certify.obligations r) in
        certs := (pass, report) :: !certs;
        match Certify.failures report with
        | c :: _ when fail_safe ->
            Fault.fail
              (Fault.Cert_refuted
                 { pass; obligation = Fmt.str "%a" Certify.pp_checked c })
        | _ -> ())
      cert;
    (q, x)
  in
  (* The degradation ladder (~fail_safe:true).  Each variant is built
     as one containment unit: a crashing pass, an erroring lint report,
     or a refuted certificate discards the unit's output, records the
     fault and the rung fallen back to, and the compile continues -
     pack -> reuse -> opt -> unopt, so every variant in [compiled] is
     populated even when its pass failed. *)
  let contain ~fb_name ~fallback f =
    if not fail_safe then f ()
    else
      try f ()
      with Fault.Fault fl ->
        recov :=
          { r_fault = fl; r_pass = Fault.blame fl; r_fallback = fb_name }
          :: !recov;
        fallback ()
  in
  (* A rung beyond [unopt] runs on a private clone of the rung below,
     and falls back to another clone of it with [empty] statistics. *)
  let rung (below, prev) ~empty f =
    contain ~fb_name:below
      ~fallback:(fun () -> (Ir.Clone.clone_prog prev, empty ()))
      (fun () -> f (Ir.Clone.clone_prog prev))
  in
  let cleanup ~stage pass q =
    step ~stage pass (fun cert -> Cleanup.run ?cert) q
  in
  (* reuse and pack refresh liveness before their certificate is checked *)
  let relive (q, st) =
    ignore (Lastuse.annotate q);
    (q, st)
  in
  let time_base = ref 0. and time_sc = ref 0. in
  let time_reuse = ref 0. and time_pack = ref 0. in
  (* first variant: memory introduction, hoisting and last-use, run once
     and certified; the uncertified [to_memory_ir] is its fallback *)
  let unopt =
    contain ~fb_name:"unopt"
      ~fallback:(fun () -> to_memory_ir p)
      (fun () ->
        let q, () =
          step ~stage:"memintro" ~clock:time_base "memintro"
            (fun cert q -> (Memintro.introduce ?cert q, ()))
            (Ir.Clone.clone_prog p)
        in
        let q, () =
          step ~stage:"hoist" ~clock:time_base "hoist"
            (fun cert q -> (Hoist.hoist ?cert q, ()))
            q
        in
        ignore (Lastuse.annotate q);
        checkpoint "lastuse" q;
        q)
  in
  (* second variant: short-circuiting plus a cleanup round removing the
     allocations it orphaned *)
  let opt, (stats, dead_allocs) =
    rung ("unopt", unopt)
      ~empty:(fun () -> (Shortcircuit.fresh_stats (), 0))
      (fun q ->
        let q, st =
          step ~stage:"shortcircuit" ~clock:time_sc "shortcircuit"
            (fun cert q -> Shortcircuit.optimize ~options ?cert q)
            q
        in
        let q, n = cleanup ~stage:"cleanup" "cleanup" q in
        (q, (st, n)))
  in
  (* third variant: memory-block reuse, then a cleanup round collecting
     the allocations the pass orphaned; the later cleanup rounds get
     their own pass names so the rounds stay distinguishable in reports
     and the certificate baseline *)
  let reuse_p, (reuse_stats, reuse_dead_allocs) =
    rung ("opt", opt)
      ~empty:(fun () -> (Reuse.fresh_stats (), 0))
      (fun q ->
        let q, st =
          step ~clock:time_reuse "reuse"
            (fun cert q -> relive (Reuse.optimize ~options:reuse ?cert q))
            q
        in
        let q, n = cleanup ~stage:"reuse" "cleanup-reuse" q in
        (q, (st, n)))
  in
  (* fourth variant: offset-based packing of the blocks surviving
     reuse, then a cleanup round collecting the member allocations the
     arenas absorbed *)
  let pack_p, (pack_stats, pack_dead_allocs) =
    rung ("reuse", reuse_p)
      ~empty:(fun () -> (Pack.fresh_stats (), 0))
      (fun q ->
        let q, st =
          step ~clock:time_pack "pack"
            (fun cert q -> relive (Pack.optimize ~options:pack ?cert q))
            q
        in
        let q, n = cleanup ~stage:"pack" "cleanup-pack" q in
        (q, (st, n)))
  in
  let prover_exhausted =
    (Symalg.Prover.stats ()).budget_exhausted - prover0
  in
  if fail_safe && prover_exhausted > 0 then
    recov :=
      {
        r_fault = Fault.Prover_budget { exhausted = prover_exhausted };
        r_pass = "prover";
        r_fallback = "skipped rewrites";
      }
      :: !recov;
  {
    source = p;
    unopt;
    opt;
    reuse = reuse_p;
    pack = pack_p;
    stats;
    reuse_stats;
    pack_stats;
    dead_allocs;
    reuse_dead_allocs;
    pack_dead_allocs;
    time_base = !time_base;
    time_sc = !time_sc;
    time_reuse = !time_reuse;
    time_pack = !time_pack;
    lint = List.rev !reports;
    certs = List.rev !certs;
    recovery = List.rev !recov;
    prover_exhausted;
  }

(* The variant ladder, in order: the one list of the variants' names. *)
let ladder =
  [
    ("unopt", fun c -> c.unopt);
    ("opt", fun c -> c.opt);
    ("reuse", fun c -> c.reuse);
    ("pack", fun c -> c.pack);
  ]

let variant_names = List.map fst ladder

(* Every variant of a compile, named, in ladder order. *)
let variants (c : compiled) : (string * prog) list =
  List.map (fun (name, get) -> (name, get c)) ladder

(* The first stage whose lint report errors: the pass that introduced
   the first violation. *)
let first_lint_error (stages : (string * Memlint.report) list) :
    (string * Memlint.violation) option =
  List.find_map
    (fun (stage, r) ->
      match Memlint.errors r with v :: _ -> Some (stage, v) | [] -> None)
    stages

(* The first pass whose certificate has a refuted obligation. *)
let first_cert_failure (certs : (string * Certify.report) list) :
    (string * Certify.checked) option =
  List.find_map
    (fun (pass, r) ->
      match Certify.failures r with c :: _ -> Some (pass, c) | [] -> None)
    certs
