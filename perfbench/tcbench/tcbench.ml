(* One pass of the toolchain benchmark, in a fresh process.

     tcbench.exe WORKLOAD SEED PASS [--trace] [--setup-only]

   WORKLOAD is compile, verify or execute (see README.md).  The pass
   sets up, prints "ready <unix time> <set-up compile seconds>" when the
   first timed op starts, runs the workload's ops once, checks every
   output and prints one JSON object as its last line.  With --trace
   the layer calls are wrapped in spans (name, start, end, parent,
   under one run id) and the per-layer summary and the spans ride along
   in the JSON object; with --setup-only the pass stops after "ready"
   and its JSON object carries only the ops of its set-up.
   The seed (mixed with PASS) draws program order, stage order and
   sizes; the library only ever sees the generated programs and
   arguments. *)

module Pr = Symalg.Prover
module Pipeline = Core.Pipeline
module Exec = Gpu.Exec
module Device = Gpu.Device
module Value = Ir.Value
module B = Benchsuite

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* ---- spans and counts (traced passes only) ----------------------- *)

type span = {
  id : int;
  name : string;
  label : string;
  parent : int;
  t0 : float;
  t1 : float;
}

let tracing = ref false
let spans : span list ref = ref []
let stack = ref [ 0 ]
let next_id = ref 1

(* Counts recorded at the same boundaries as the spans, by metric name. *)
let counts : (string, float) Hashtbl.t = Hashtbl.create 64

let count name = Option.value ~default:0. (Hashtbl.find_opt counts name)

let addi name v =
  if !tracing then Hashtbl.replace counts name (float_of_int v +. count name)

let span ?(label = "") name f =
  if not !tracing then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = List.hd !stack in
    stack := id :: !stack;
    let t0 = now () in
    Fun.protect
      ~finally:(fun () ->
        let t1 = now () in
        stack := List.tl !stack;
        spans := { id; name; label; parent; t0; t1 } :: !spans)
      f
  end

let prover_total (s : Pr.stats) = s.Pr.sat_misses + s.Pr.nonneg_misses

(* A layer call: a span plus the prover work done inside it. *)
let layer name f =
  if not !tracing then f ()
  else begin
    let s0 = Pr.stats () in
    let r = span name f in
    let s1 = Pr.stats () in
    addi (name ^ ".prover_misses") (prover_total s1 - prover_total s0);
    addi (name ^ ".prover_exhausted")
      (s1.Pr.budget_exhausted - s0.Pr.budget_exhausted);
    r
  end

(* ---- the programs -------------------------------------------------- *)

type program = {
  name : string;
  source : unit -> Ir.Ast.prog;
  datasets : unit -> B.Runner.dataset list;
  small : Random.State.t -> Value.t list;  (** validation sizes *)
  large : Random.State.t -> Value.t list;  (** execute-workload sizes *)
}

let pick st lo hi = lo + Random.State.int st (hi - lo + 1)

let nw_small st = B.Nw.small_args ~q:(pick st 2 4) ~b:4

let nw_large st = B.Nw.small_args ~q:(pick st 10 12) ~b:8

let programs =
  [
    {
      name = "nw";
      source = (fun () -> B.Nw.prog);
      datasets = B.Nw.datasets;
      small = nw_small;
      large = nw_large;
    };
    {
      name = "lud";
      source = (fun () -> B.Lud.prog);
      datasets = B.Lud.datasets;
      small = (fun st -> B.Lud.small_args ~q:(pick st 2 4) ~b:4);
      large = (fun st -> B.Lud.small_args ~q:(pick st 5 6) ~b:8);
    };
    {
      name = "hotspot";
      source = (fun () -> B.Hotspot.prog);
      datasets = B.Hotspot.datasets;
      small =
        (fun st ->
          B.Hotspot.small_args ~n:(pick st 12 20) ~steps:(pick st 2 4));
      large = (fun st -> B.Hotspot.small_args ~n:(pick st 38 42) ~steps:6);
    };
    {
      name = "lbm";
      source = (fun () -> B.Lbm.prog);
      datasets = B.Lbm.datasets;
      small =
        (fun st -> B.Lbm.small_args ~n:(pick st 6 10) ~steps:(pick st 2 4));
      large = (fun st -> B.Lbm.small_args ~n:(pick st 16 18) ~steps:4);
    };
    {
      name = "optionpricing";
      source = (fun () -> B.Option_pricing.prog);
      datasets = B.Option_pricing.datasets;
      small =
        (fun st ->
          B.Option_pricing.small_args ~npaths:(pick st 48 80)
            ~nsteps:(pick st 12 20));
      large =
        (fun st ->
          B.Option_pricing.small_args ~npaths:(pick st 240 272) ~nsteps:18);
    };
    {
      name = "locvolcalib";
      source = (fun () -> B.Locvolcalib.prog);
      datasets = B.Locvolcalib.datasets;
      small =
        (fun st ->
          B.Locvolcalib.small_args ~numo:(pick st 4 8) ~numx:(pick st 10 14)
            ~numt:(pick st 3 5));
      large =
        (fun st ->
          B.Locvolcalib.small_args ~numo:(pick st 30 34) ~numx:48 ~numt:8);
    };
    {
      name = "nn";
      source = (fun () -> B.Nn.prog);
      datasets = B.Nn.datasets;
      small =
        (fun st ->
          B.Nn.small_args ~nrec:(pick st 80 120) ~nbatch:(pick st 3 5) ~bsz:8);
      large =
        (fun st -> B.Nn.small_args ~nrec:(pick st 950 1050) ~nbatch:4 ~bsz:16);
    };
  ]

(* NW once more, elaborated from surface syntax: the same program with
   different fresh names, i.e. the shared-work case. *)
let nw_source =
  {
    name = "nw-src";
    source =
      (fun () ->
        layer "frontend" (fun () ->
            Frontend.Elab.compile_string ~ctx:B.Nw.ctx0 B.Nw_source.source));
    datasets = B.Nw.datasets;
    small = nw_small;
    large = nw_large;
  }

let shuffle st l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* ---- the compile pipeline, traced ---------------------------------- *)

let variants (c : Pipeline.compiled) =
  Pipeline.
    [ ("unopt", c.unopt); ("opt", c.opt); ("reuse", c.reuse); ("pack", c.pack) ]

(* Pipeline.compile ~certify:true ~fail_safe:true, replayed call by
   call through the passes' public entry points so that each call gets
   its own span.  Same calls, same order, same clones; the degradation
   ladder is not replayed (a fault fails the op instead), which is
   harmless because the fingerprint check against the untraced pass
   would expose any divergence. *)
let traced_compile (p : Ir.Ast.prog) : Pipeline.compiled =
  let open Core in
  let clone = Ir.Clone.clone_prog in
  let exhausted0 = (Pr.stats ()).Pr.budget_exhausted in
  let certs = ref [] in
  let certified pass f q =
    let rc = Certify.recorder ~pass in
    let pre = clone q in
    let r = f rc q in
    let report =
      layer "certify" (fun () ->
          Certify.check ~pass ~pre ~post:(fst r) (Certify.obligations rc))
    in
    addi "certify.emitted" report.Certify.emitted;
    addi "certify.proved" report.Certify.proved;
    addi "certify.concretized" report.Certify.concretized;
    addi "certify.failed" report.Certify.failed;
    certs := (pass, report) :: !certs;
    r
  in
  let cleanup pass q =
    certified pass
      (fun rc q ->
        let q, n = layer "cleanup" (fun () -> Cleanup.run ~cert:rc q) in
        addi "cleanup.removed" n;
        (q, n))
      q
  in
  let lastuse q = ignore (layer "lastuse" (fun () -> Lastuse.annotate q)) in
  let unopt =
    let u = layer "memintro" (fun () -> Memintro.introduce (clone p)) in
    let u = layer "hoist" (fun () -> Hoist.hoist u) in
    lastuse u;
    u
  in
  let opt_base, () =
    certified "memintro"
      (fun rc q ->
        (layer "memintro" (fun () -> Memintro.introduce ~cert:rc q), ()))
      (clone p)
  in
  let opt_base, () =
    certified "hoist"
      (fun rc q -> (layer "hoist" (fun () -> Hoist.hoist ~cert:rc q), ()))
      opt_base
  in
  lastuse opt_base;
  let q, stats =
    certified "shortcircuit"
      (fun rc q ->
        layer "shortcircuit" (fun () ->
            Shortcircuit.optimize ~rounds:2 ~cert:rc q))
      (clone opt_base)
  in
  let opt, dead_allocs = cleanup "cleanup" q in
  (* reuse and pack refresh liveness before their certificate is checked *)
  let rewrite name f rc q =
    let r = layer name (fun () -> f rc q) in
    lastuse (fst r);
    r
  in
  let q, reuse_stats =
    certified "reuse"
      (rewrite "reuse" (fun rc q -> Reuse.optimize ~cert:rc q))
      (clone opt)
  in
  let reuse, reuse_dead_allocs = cleanup "cleanup-reuse" q in
  let q, pack_stats =
    certified "pack"
      (rewrite "pack" (fun rc q -> Pack.optimize ~cert:rc q))
      (clone reuse)
  in
  let pack, pack_dead_allocs = cleanup "cleanup-pack" q in
  let prover_exhausted = (Pr.stats ()).Pr.budget_exhausted - exhausted0 in
  let recovery =
    if prover_exhausted = 0 then []
    else
      [
        {
          Pipeline.r_fault =
            Fault.Prover_budget { exhausted = prover_exhausted };
          r_pass = "prover";
          r_fallback = "skipped rewrites";
        };
      ]
  in
  {
    Pipeline.source = p;
    unopt;
    opt;
    reuse;
    pack;
    stats;
    reuse_stats;
    pack_stats;
    dead_allocs;
    reuse_dead_allocs;
    pack_dead_allocs;
    (* the spans carry the times *)
    time_base = 0.;
    time_sc = 0.;
    time_reuse = 0.;
    time_pack = 0.;
    lint = [];
    certs = List.rev !certs;
    recovery;
    prover_exhausted;
  }

let compile p =
  let c =
    span "pipeline" (fun () ->
        if !tracing then traced_compile p
        else Pipeline.compile ~certify:true ~fail_safe:true p)
  in
  let sc = c.Pipeline.stats and re = c.Pipeline.reuse_stats in
  let pk = c.Pipeline.pack_stats in
  addi "shortcircuit.candidates" sc.Core.Shortcircuit.candidates;
  addi "shortcircuit.succeeded" sc.Core.Shortcircuit.succeeded;
  addi "shortcircuit.overlap_checks" sc.Core.Shortcircuit.overlap_checks;
  addi "reuse.coalesced" re.Core.Reuse.coalesced;
  addi "reuse.hoisted" re.Core.Reuse.hoisted;
  addi "reuse.rotated" re.Core.Reuse.rotated;
  addi "reuse.chain_links" re.Core.Reuse.chain_links;
  addi "pack.arenas" pk.Core.Pack.arenas;
  addi "pack.packed" pk.Core.Pack.packed;
  addi "pack.unpacked" pk.Core.Pack.unpacked;
  addi "pack.holes" pk.Core.Pack.holes;
  c

(* ---- results of one pass ------------------------------------------- *)

let ops = ref 0
let ops_failed = ref 0
let failures : string list ref = ref []
let compile_s = ref 0.

(* Deterministic facts of the pass, compared between the traced and
   the untraced pass of one seed: the traced breakdown must describe
   the same programs. *)
let fingerprint : string list ref = ref []
let fp fmt = Printf.ksprintf (fun s -> fingerprint := s :: !fingerprint) fmt

let count_op name errs =
  incr ops;
  if errs <> [] then begin
    incr ops_failed;
    failures := List.rev_map (fun e -> name ^ ": " ^ e) errs @ !failures
  end

(* One op: counted, never aborted on; an exception is its failure. *)
let op name f =
  count_op name
    (try span ~label:name "op" f with e -> [ Printexc.to_string e ])

let fp_compiled name (c : Pipeline.compiled) =
  let sc = c.Pipeline.stats and re = c.Pipeline.reuse_stats in
  let pk = c.Pipeline.pack_stats in
  fp "%s sc %d %d %d %d" name sc.Core.Shortcircuit.candidates
    sc.Core.Shortcircuit.succeeded sc.Core.Shortcircuit.overlap_checks
    sc.Core.Shortcircuit.rebased_vars;
  fp "%s reuse %d %d %d %d %d %d" name re.Core.Reuse.candidates
    re.Core.Reuse.coalesced re.Core.Reuse.size_proofs re.Core.Reuse.chain_links
    re.Core.Reuse.rotated re.Core.Reuse.hoisted;
  fp "%s pack %d %d %d %d %d %d" name pk.Core.Pack.arenas pk.Core.Pack.packed
    pk.Core.Pack.unpacked pk.Core.Pack.offset_proofs pk.Core.Pack.holes
    pk.Core.Pack.promoted;
  fp "%s dead %d %d %d" name c.Pipeline.dead_allocs c.Pipeline.reuse_dead_allocs
    c.Pipeline.pack_dead_allocs;
  List.iter
    (fun (pass, r) ->
      fp "%s cert %s %d %d %d %d" name pass r.Core.Certify.emitted
        r.Core.Certify.proved r.Core.Certify.concretized r.Core.Certify.failed)
    c.Pipeline.certs

(* Errors of a compile: refuted obligations and contained faults. *)
let compile_errors (c : Pipeline.compiled) =
  List.concat_map
    (fun (pass, r) ->
      List.map
        (fun ch -> Fmt.str "refuted %s: %a" pass Core.Certify.pp_checked ch)
        (Core.Certify.failures r))
    c.Pipeline.certs
  @ List.map
      (fun r ->
        Fmt.str "recovery %s -> %s: %a" r.Pipeline.r_pass r.Pipeline.r_fallback
          Core.Fault.pp r.Pipeline.r_fault)
      c.Pipeline.recovery

(* Quality of the generated code, priced cost-only on the paper
   datasets: impact rows, peak ratios and pack allocations.  A peak
   counts the input arrays too (8 bytes an element), which are resident
   on the device all along: NW's pack variant allocates nothing. *)
let impacts = ref []
let peak_ratios = ref []
let allocs_pack = ref 0
let cert_emitted = ref 0
let cert_proved = ref 0

let exec_run ~mode ?trace ?variant p args =
  let name =
    match mode with Exec.Full -> "exec.full" | Exec.Cost_only -> "exec.cost"
  in
  let r = span name (fun () -> Exec.run ~mode ?trace ?variant p args) in
  let c = r.Exec.counters in
  addi "exec.runs" 1;
  addi "exec.copies_elided" c.Device.copies_elided;
  addi "exec.pool_hits" c.Device.pool_hits;
  addi "exec.pool_misses" c.Device.pool_misses;
  r

let input_bytes args =
  List.fold_left
    (fun acc -> function
      | Value.VArr a -> acc +. (8. *. float_of_int (Value.count a.Value.shape))
      | _ -> acc)
    0. args

let price (pr : program) (c : Pipeline.compiled) =
  List.iter
    (fun (ds : B.Runner.dataset) ->
      let inputs = input_bytes ds.B.Runner.args in
      let runs =
        List.map
          (fun (v, p) -> (v, exec_run ~mode:Exec.Cost_only p ds.B.Runner.args))
          (variants c)
      in
      let counters v = (List.assoc v runs).Exec.counters in
      List.iter
        (fun (v, r) ->
          let k = r.Exec.counters in
          fp "%s %s %s allocs %d+%d peak %.17g rw %.17g copy %.17g elided %d"
            pr.name ds.B.Runner.label v k.Device.allocs k.Device.scratch_allocs
            k.Device.peak_bytes
            (k.Device.kernel_reads +. k.Device.kernel_writes)
            k.Device.copy_bytes k.Device.copies_elided)
        runs;
      List.iter
        (fun d ->
          let time v = Device.time d (counters v) in
          impacts := (time "unopt" /. time "pack") :: !impacts)
        B.Runner.devices;
      peak_ratios :=
        ((counters "pack").Device.peak_bytes +. inputs)
        /. ((counters "unopt").Device.peak_bytes +. inputs)
        :: !peak_ratios;
      allocs_pack :=
        !allocs_pack + (counters "pack").Device.allocs
        + (counters "pack").Device.scratch_allocs)
    (pr.datasets ());
  List.iter
    (fun (_, r) ->
      cert_emitted := !cert_emitted + r.Core.Certify.emitted;
      cert_proved := !cert_proved + r.Core.Certify.proved)
    c.Pipeline.certs

let same expect results =
  List.length expect = List.length results
  && List.for_all2 (Value.approx_equal ~eps:1e-6) expect results

let interp p args = span "interp" (fun () -> Ir.Interp.run p args)

(* ---- workloads ------------------------------------------------------ *)

(* A workload draws its inputs and does its set-up, then returns the
   timed part and the untimed tail that completes the quality metrics
   the timed part does not produce itself. *)

let lint_proved = ref 0
let lint_undecided = ref 0

let lint name v p =
  let r = layer "memlint" (fun () -> Core.Memlint.check ~stage:v p) in
  let open Core.Memlint in
  let proved = r.bounds_proved + r.races_proved + r.reuse_proved in
  let undecided = r.bounds_undecided + r.races_undecided + r.reuse_undecided in
  lint_proved := !lint_proved + proved;
  lint_undecided := !lint_undecided + undecided;
  addi "memlint.checks" r.annotations;
  addi "memlint.proved" proved;
  addi "memlint.undecided" undecided;
  addi "memlint.errors" (List.length (errors r));
  fp "lint %s/%s stms %d annotations %d" name v r.stms r.annotations;
  List.map (fun e -> Fmt.str "memlint error: %a" pp_violation e) (errors r)

(* The untimed lint of compile and execute: the programs whose lint
   takes well under a second (NW and LUD take seconds each). *)
let quick_lint compiled =
  List.iter
    (fun ((pr : program), c) ->
      if not (List.mem pr.name [ "nw"; "nw-src"; "lud" ]) then
        List.iter (fun (v, p) -> ignore (lint pr.name v p)) (variants c))
    compiled

let compile_workload st =
  let order = shuffle st (nw_source :: programs) in
  let sizes = List.map (fun pr -> (pr.name, pr.small st)) order in
  let compiled = ref [] in
  ( (fun () ->
      List.iter
        (fun pr ->
          op ("compile " ^ pr.name) (fun () ->
              let c, dt = timed (fun () -> compile (pr.source ())) in
              compile_s := !compile_s +. dt;
              compiled := (pr, c) :: !compiled;
              fp_compiled pr.name c;
              price pr c;
              let args = List.assoc pr.name sizes in
              let expect = interp c.Pipeline.source args in
              compile_errors c
              @ List.filter_map
                  (fun (v, p) ->
                    let r = exec_run ~mode:Exec.Full ~variant:v p args in
                    if same expect r.Exec.results then None
                    else Some ("validation mismatch: " ^ v))
                  (variants c)))
        order),
    fun () -> quick_lint (List.rev !compiled) )

(* Set-up of verify and execute: the seven programs, compiled as the
   compile workload does, in their canonical order.  Each compile is an
   op, checked like the compile workload's (outside the timed part and
   without a span); a program whose compile raises is left out. *)
let compile_all () =
  List.filter_map
    (fun pr ->
      let name = "setup compile " ^ pr.name in
      match
        timed (fun () ->
            Pipeline.compile ~certify:true ~fail_safe:true (pr.source ()))
      with
      | c, dt ->
          compile_s := !compile_s +. dt;
          count_op name (compile_errors c);
          fp_compiled pr.name c;
          Some (pr, c)
      | exception e ->
          count_op name [ Printexc.to_string e ];
          None)
    programs

let price_all compiled = List.iter (fun (pr, c) -> price pr c) compiled

let verify_workload st =
  let compiled = compile_all () in
  let stages =
    shuffle st
      (List.concat_map
         (fun (pr, c) -> List.map (fun (v, p) -> (pr.name, v, p)) (variants c))
         compiled)
  in
  ( (fun () ->
      List.iter
        (fun (name, v, p) ->
          op (Printf.sprintf "lint %s/%s" name v) (fun () -> lint name v p))
        stages),
    fun () -> price_all compiled )

let execute_workload st =
  let compiled = compile_all () in
  let order =
    shuffle st (List.map (fun (pr, c) -> (pr, c, pr.large st)) compiled)
  in
  ( (fun () ->
      List.iter
        (fun ((pr : program), c, args) ->
          (* run by the first variant's op; if it raises, every variant
             of the program fails with its exception *)
          let expect = lazy (interp c.Pipeline.source args) in
          List.iter
            (fun (v, p) ->
              op (Printf.sprintf "execute %s/%s" pr.name v) (fun () ->
                  let expect = Lazy.force expect in
                  let r =
                    exec_run ~mode:Exec.Full ~trace:true ~variant:v p args
                  in
                  let m =
                    span "memtrace" (fun () ->
                        Core.Memtrace.check (Option.get r.Exec.trace))
                  in
                  let open Core.Memtrace in
                  addi "memtrace.offsets_checked" m.offsets_checked;
                  addi "memtrace.offsets_assumed" m.offsets_assumed;
                  addi "memtrace.violations" (List.length m.violations);
                  fp "execute %s/%s kernels %d copies %d elided %d checked %d"
                    pr.name v m.kernels m.copies m.elided m.offsets_checked;
                  (if same expect r.Exec.results then []
                   else [ "result mismatch" ])
                  @ List.map
                      (fun x -> Fmt.str "memtrace: %a" pp_violation x)
                      m.violations))
            (variants c))
        order),
    fun () ->
      price_all compiled;
      quick_lint compiled )

(* ---- output --------------------------------------------------------- *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_num x = if Float.is_finite x then Printf.sprintf "%.17g" x else "null"

let json_obj fields =
  "{"
  ^ String.concat ", "
      (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields)
  ^ "}"

let json_list xs = "[" ^ String.concat ", " xs ^ "]"

(* Summed in sorted order, so the value does not depend on the order
   the seed drew. *)
let geomean = function
  | [] -> nan
  | xs ->
      let logs = List.sort compare (List.map log xs) in
      exp (List.fold_left ( +. ) 0. logs /. float_of_int (List.length xs))

let ratio a b = if a +. b = 0. then nan else a /. (a +. b)

let vm_hwm_mb () =
  let ic = open_in "/proc/self/status" in
  let rec go () =
    match input_line ic with
    | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun kb ->
            float_of_int kb /. 1024.)
    | _ -> go ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) go

(* Self time per span name: duration minus the time its children cover. *)
let self_times () =
  let get t k = Option.value ~default:0. (Hashtbl.find_opt t k) in
  let bump t k v = Hashtbl.replace t k (get t k +. v) in
  let child = Hashtbl.create 64 and self = Hashtbl.create 16 in
  List.iter (fun (s : span) -> bump child s.parent (s.t1 -. s.t0)) !spans;
  List.iter
    (fun (s : span) -> bump self s.name (s.t1 -. s.t0 -. get child s.id))
    !spans;
  get self

let () =
  let argv = Array.to_list Sys.argv in
  let flag f = List.mem f argv in
  let usage () =
    prerr_endline
      "usage: tcbench.exe WORKLOAD SEED PASS [--trace] [--setup-only]";
    exit 2
  in
  let workload, seed, pass =
    let positional a = not (String.starts_with ~prefix:"--" a) in
    match List.filter positional argv with
    | [ _; w; s; p ] -> (
        try (w, int_of_string s, int_of_string p) with Failure _ -> usage ())
    | _ -> usage ()
  in
  let traced = flag "--trace" in
  tracing := traced;
  let st = Random.State.make [| seed; pass |] in
  let run, post =
    match workload with
    | "compile" -> compile_workload st
    | "verify" -> verify_workload st
    | "execute" -> execute_workload st
    | _ -> usage ()
  in
  let setup_prover = Pr.stats () in
  (* the first timed op starts now: run.py takes set-up time from this *)
  Printf.printf "ready %.6f %.6f\n%!" (now ()) !compile_s;
  let op_fields () =
    [
      ("run_id", json_string (Printf.sprintf "%s-%d-%d" workload seed pass));
      ("ops", string_of_int !ops);
      ("ops_failed", string_of_int !ops_failed);
      ("failures", json_list (List.rev_map json_string !failures));
    ]
  in
  if flag "--setup-only" then begin
    print_endline (json_obj (op_fields ()));
    exit 0
  end;
  let gc0 = Gc.quick_stat () in
  let cpu0 = Sys.time () in
  let (), wall_s = timed (fun () -> span "run" run) in
  let cpu_s = Sys.time () -. cpu0 in
  let gc1 = Gc.quick_stat () in
  (* prover figures cover set-up and the timed part, not the tail *)
  let ps = Pr.stats () in
  let peak_rss_mb = vm_hwm_mb () in
  tracing := false;
  post ();
  let hit h m = ratio (float_of_int h) (float_of_int m) in
  let layers =
    if not traced then []
    else begin
      let self_of = self_times () in
      let named =
        [ "frontend"; "memintro"; "hoist"; "lastuse"; "shortcircuit";
          "cleanup"; "reuse"; "pack"; "certify"; "memlint"; "memtrace";
          "interp"; "pipeline" ]
      in
      List.map (fun n -> (n ^ ".self_s", self_of n)) named
      @ [
          ("exec.full_s", self_of "exec.full");
          ("exec.cost_s", self_of "exec.cost");
          ("trace.unattributed_s", self_of "run" +. self_of "op");
          ( "shortcircuit.success_ratio",
            count "shortcircuit.succeeded" /. count "shortcircuit.candidates" );
          ( "memlint.decided_ratio",
            ratio (count "memlint.proved") (count "memlint.undecided") );
          ( "exec.pool_hit_ratio",
            ratio (count "exec.pool_hits") (count "exec.pool_misses") );
          ("prover.sat_misses", float_of_int ps.Pr.sat_misses);
          ("prover.sat_hit_ratio", hit ps.Pr.sat_hits ps.Pr.sat_misses);
          ("prover.nonneg_misses", float_of_int ps.Pr.nonneg_misses);
          ( "prover.nonneg_hit_ratio",
            hit ps.Pr.nonneg_hits ps.Pr.nonneg_misses );
          ( "prover.resets",
            float_of_int (ps.Pr.sat_resets + ps.Pr.nonneg_resets) );
          ("prover.exhausted", float_of_int ps.Pr.budget_exhausted);
          ( "prover.timed_nonneg_misses",
            float_of_int
              (ps.Pr.nonneg_misses - setup_prover.Pr.nonneg_misses) );
          ("cpu_s", cpu_s);
          ( "gc.major_collections",
            float_of_int
              (gc1.Gc.major_collections - gc0.Gc.major_collections) );
          ( "gc.top_heap_mb",
            float_of_int (gc1.Gc.top_heap_words * (Sys.word_size / 8))
            /. 1048576. );
        ]
      @ List.of_seq (Hashtbl.to_seq counts)
    end
  in
  let spans_json =
    if not traced then []
    else
      [
        ( "spans",
          json_list
            (List.rev_map
               (fun s ->
                 json_obj
                   [
                     ("id", string_of_int s.id);
                     ("parent", string_of_int s.parent);
                     ("name", json_string s.name);
                     ("label", json_string s.label);
                     ("start", json_num s.t0);
                     ("end", json_num s.t1);
                   ])
               !spans) );
      ]
  in
  let num (k, v) = (k, json_num v) in
  print_endline
    (json_obj
       (op_fields ()
       @ List.map num
           [
             ("wall_s", wall_s);
             ("compile_s", !compile_s);
             ("peak_rss_mb", peak_rss_mb);
             ("impact_geomean", geomean !impacts);
             ("peak_ratio_geomean", geomean !peak_ratios);
             ("allocs_pack", float_of_int !allocs_pack);
             ( "cert_proved_frac",
               float_of_int !cert_proved /. float_of_int !cert_emitted );
             ( "lint_decided_frac",
               ratio (float_of_int !lint_proved)
                 (float_of_int !lint_undecided) );
             ("prover_misses", float_of_int (prover_total ps));
             ("prover_exhausted", float_of_int ps.Pr.budget_exhausted);
           ]
       @ [
           ("fingerprint", json_list (List.rev_map json_string !fingerprint));
           ("layers", json_obj (List.map num layers));
         ]
       @ spans_json))
