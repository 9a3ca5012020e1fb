(* Minimal JSON parsing and the bench-trajectory gate.

   The repo deliberately carries no JSON dependency (the emitters in
   bin/repro.ml and lib/core/trace.ml are hand-rolled prints), so the
   gate's reader side is hand-rolled too: a small recursive-descent
   parser covering exactly the JSON the suite emits - objects, arrays,
   strings with backslash escapes, numbers, booleans, null.

   The gate compares a freshly emitted BENCH.json against a committed
   baseline (bench/baseline.json):

   - per (benchmark, device, dataset) row, each variant's modeled time
     may not exceed the baseline by more than the relative tolerance -
     times are simulated, so drift only comes from code changes, and
     the tolerance only absorbs intentional cost-model adjustments;
   - per (benchmark, dataset, variant) footprint, the allocation count,
     peak live bytes and modeled DRAM traffic must be monotone
     non-increasing - these are exact counters, so any increase is a
     regression by definition;
   - a capped pool's high-water mark must not exceed its cap (checked
     on the current record alone - the cap is a costed constraint);
   - a benchmark present in the baseline must stay present.

   Improvements beyond tolerance and new benchmarks are reported as
   notes (a prompt to refresh the baseline), never as failures. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* ---------------------------------------------------------------- *)
(* Parser                                                            *)
(* ---------------------------------------------------------------- *)

exception Bad of string

let parse (s : string) : (t, string) result =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let fail fmt =
    Printf.ksprintf (fun m -> raise (Bad (Printf.sprintf "%s at offset %d" m !pos))) fmt
  in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some d when d = c -> advance ()
    | _ -> fail "expected %c" c
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else fail "bad literal"
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match peek () with
          | Some '"' -> Buffer.add_char buf '"'; advance (); go ()
          | Some '\\' -> Buffer.add_char buf '\\'; advance (); go ()
          | Some '/' -> Buffer.add_char buf '/'; advance (); go ()
          | Some 'n' -> Buffer.add_char buf '\n'; advance (); go ()
          | Some 't' -> Buffer.add_char buf '\t'; advance (); go ()
          | Some 'r' -> Buffer.add_char buf '\r'; advance (); go ()
          | Some 'b' -> Buffer.add_char buf '\b'; advance (); go ()
          | Some 'u' ->
              (* the suite never emits \u escapes; accept and drop *)
              advance ();
              for _ = 1 to 4 do
                if !pos < n then advance ()
              done;
              Buffer.add_char buf '?';
              go ()
          | _ -> fail "bad escape")
      | Some c ->
          Buffer.add_char buf c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> num_char c | None -> false) do
      advance ()
    done;
    if !pos = start then fail "expected number"
    else
      match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some f -> f
      | None -> fail "malformed number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else
          let rec members acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members ((k, v) :: acc)
            | Some '}' ->
                advance ();
                Obj (List.rev ((k, v) :: acc))
            | _ -> fail "expected , or }"
          in
          members []
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          Arr []
        end
        else
          let rec elems acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                elems (v :: acc)
            | Some ']' ->
                advance ();
                Arr (List.rev (v :: acc))
            | _ -> fail "expected , or ]"
          in
          elems []
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> Num (parse_number ())
    | None -> fail "unexpected end of input"
  in
  try
    let v = parse_value () in
    skip_ws ();
    if !pos < n then Error (Printf.sprintf "trailing input at offset %d" !pos)
    else Ok v
  with Bad m -> Error m

(* ---------------------------------------------------------------- *)
(* Accessors                                                         *)
(* ---------------------------------------------------------------- *)

let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None
let arr = function Arr l -> Some l | _ -> None
let num = function Num f -> Some f | _ -> None
let str = function Str s -> Some s | _ -> None

let num_at path v =
  let rec go v = function
    | [] -> num v
    | k :: rest -> Option.bind (member k v) (fun v -> go v rest)
  in
  go v path

(* ---------------------------------------------------------------- *)
(* The gate                                                          *)
(* ---------------------------------------------------------------- *)

type gate = {
  regressions : string list; (* hard failures: exit nonzero *)
  notes : string list; (* informational: improvements, new benchmarks *)
  checked : int; (* individual comparisons performed *)
}

let default_tolerance = 0.05

let benchmarks_of v =
  match Option.bind (member "benchmarks" v) arr with
  | Some l -> l
  | None -> []

let name_of b = Option.value ~default:"?" (Option.bind (member "name" b) str)

(* time fields per row, footprint fields per variant *)
let fp_variants = Core.Pipeline.variant_names
let row_times = List.map (fun v -> v ^ "_ms") fp_variants
let fp_monotone = [ "allocs"; "peak_bytes"; "traffic_bytes" ]

(* packing-pass counters: arenas, packed placements and certified
   lifetime holes may only grow, unpacked (undecidable) placements may
   only shrink - the planner must not silently lose coverage *)
let pack_grow = [ "arenas"; "packed"; "holes" ]
let pack_shrink = [ "unpacked" ]

let gate ?(tolerance = default_tolerance) ~(baseline : t) ~(current : t) () :
    gate =
  let regressions = ref [] in
  let notes = ref [] in
  let checked = ref 0 in
  let reg fmt = Printf.ksprintf (fun m -> regressions := m :: !regressions) fmt in
  let note fmt = Printf.ksprintf (fun m -> notes := m :: !notes) fmt in
  let base_b = benchmarks_of baseline and cur_b = benchmarks_of current in
  let find name l = List.find_opt (fun b -> name_of b = name) l in
  List.iter
    (fun bb ->
      let bname = name_of bb in
      match find bname cur_b with
      | None -> reg "%s: benchmark present in baseline but missing from current run" bname
      | Some cb ->
          (* rows: modeled times within tolerance *)
          let rows v =
            Option.value ~default:[] (Option.bind (member "rows" v) arr)
          in
          let row_key r =
            ( Option.value ~default:"?" (Option.bind (member "device" r) str),
              Option.value ~default:"?" (Option.bind (member "dataset" r) str) )
          in
          List.iter
            (fun br ->
              let dev, ds = row_key br in
              match
                List.find_opt (fun cr -> row_key cr = (dev, ds)) (rows cb)
              with
              | None ->
                  reg "%s [%s/%s]: row missing from current run" bname dev ds
              | Some cr ->
                  List.iter
                    (fun field ->
                      match (num_at [ field ] br, num_at [ field ] cr) with
                      | Some b, Some c when b > 0. ->
                          incr checked;
                          let rel = (c -. b) /. b in
                          if rel > tolerance then
                            reg
                              "%s [%s/%s]: %s %.4g -> %.4g ms (%+.1f%%, \
                               tolerance %.1f%%)"
                              bname dev ds field b c (100. *. rel)
                              (100. *. tolerance)
                          else if rel < -.tolerance then
                            note
                              "%s [%s/%s]: %s improved %.4g -> %.4g ms \
                               (%+.1f%%) - consider refreshing the baseline"
                              bname dev ds field b c (100. *. rel)
                      | _ -> ())
                    row_times)
            (rows bb);
          (* footprints: allocs and peak monotone non-increasing *)
          let fps v =
            Option.value ~default:[] (Option.bind (member "footprints" v) arr)
          in
          let ds_of f =
            Option.value ~default:"?" (Option.bind (member "dataset" f) str)
          in
          List.iter
            (fun bf ->
              let ds = ds_of bf in
              match List.find_opt (fun cf -> ds_of cf = ds) (fps cb) with
              | None ->
                  reg "%s [%s]: footprint missing from current run" bname ds
              | Some cf ->
                  List.iter
                    (fun variant ->
                      List.iter
                        (fun field ->
                          match
                            ( num_at [ variant; field ] bf,
                              num_at [ variant; field ] cf )
                          with
                          | Some b, Some c ->
                              incr checked;
                              if c > b then
                                reg "%s [%s] %s: %s grew %g -> %g" bname ds
                                  variant field b c
                              else if c < b then
                                note
                                  "%s [%s] %s: %s shrank %g -> %g - consider \
                                   refreshing the baseline"
                                  bname ds variant field b c
                          | _ -> ())
                        fp_monotone;
                      (* a capped pool's high-water mark must respect
                         the cap: the cap is a costed constraint, not a
                         hint, so any breach is a hard failure of the
                         current record regardless of the baseline *)
                      match
                        ( num_at [ variant; "pool"; "high_water_bytes" ] cf,
                          num_at [ variant; "pool"; "cap" ] cf )
                      with
                      | Some hw, Some cap ->
                          incr checked;
                          if hw > cap then
                            reg
                              "%s [%s] %s: pool high-water %g exceeds cap %g"
                              bname ds variant hw cap
                      | _ -> ())
                    fp_variants)
            (fps bb);
          (* packing coverage: the planner may not lose ground - fewer
             arenas or packed placements, or more undecidable ones,
             means previously provable offsets stopped proving *)
          List.iter
            (fun field ->
              match
                ( num_at [ "pack_stats"; field ] bb,
                  num_at [ "pack_stats"; field ] cb )
              with
              | Some b, Some c ->
                  incr checked;
                  if c < b then
                    reg "%s: pack_stats.%s dropped %g -> %g" bname field b c
                  else if c > b then
                    note
                      "%s: pack_stats.%s grew %g -> %g - consider refreshing \
                       the baseline"
                      bname field b c
              | _ -> ())
            pack_grow;
          List.iter
            (fun field ->
              match
                ( num_at [ "pack_stats"; field ] bb,
                  num_at [ "pack_stats"; field ] cb )
              with
              | Some b, Some c ->
                  incr checked;
                  if c > b then
                    reg "%s: pack_stats.%s grew %g -> %g" bname field b c
                  else if c < b then
                    note
                      "%s: pack_stats.%s shrank %g -> %g - consider \
                       refreshing the baseline"
                      bname field b c
              | _ -> ())
            pack_shrink)
    base_b;
  List.iter
    (fun cb ->
      let cname = name_of cb in
      if find cname base_b = None then
        note "%s: new benchmark not in baseline - refresh to start gating it"
          cname)
    cur_b;
  {
    regressions = List.rev !regressions;
    notes = List.rev !notes;
    checked = !checked;
  }

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
  let regressions = ref [] in
  let notes = ref [] in
  let checked = ref 0 in
  let reg fmt = Printf.ksprintf (fun m -> regressions := m :: !regressions) fmt in
  let note fmt = Printf.ksprintf (fun m -> notes := m :: !notes) fmt in
  let ff_b = benchmarks_of firstfit and c_b = benchmarks_of colour in
  let find name l = List.find_opt (fun b -> name_of b = name) l in
  List.iter
    (fun fb ->
      let bname = name_of fb in
      match find bname c_b with
      | None -> reg "%s: benchmark missing from the colour run" bname
      | Some cb ->
          let fps v =
            Option.value ~default:[] (Option.bind (member "footprints" v) arr)
          in
          let ds_of f =
            Option.value ~default:"?" (Option.bind (member "dataset" f) str)
          in
          List.iter
            (fun ff ->
              let ds = ds_of ff in
              match List.find_opt (fun cf -> ds_of cf = ds) (fps cb) with
              | None ->
                  reg "%s [%s]: footprint missing from the colour run" bname ds
              | Some cf -> (
                  match
                    ( num_at [ "pack"; "arena_bytes" ] ff,
                      num_at [ "pack"; "arena_bytes" ] cf )
                  with
                  | Some f, Some c ->
                      incr checked;
                      if c > f then
                        reg
                          "%s [%s]: colour arena extent %g B exceeds \
                           first-fit's %g B"
                          bname ds c f
                      else if c < f then
                        note "%s [%s]: colour arena extent %g B < first-fit \
                              %g B" bname ds c f
                  | _ -> ()))
            (fps fb);
          List.iter
            (fun field ->
              match
                ( num_at [ "pack_stats"; field ] fb,
                  num_at [ "pack_stats"; field ] cb )
              with
              | Some f, Some c ->
                  incr checked;
                  if c < f then
                    reg "%s: colour pack_stats.%s %g below first-fit's %g"
                      bname field c f
                  else if c > f then
                    note "%s: colour pack_stats.%s %g above first-fit's %g"
                      bname field c f
              | _ -> ())
            pack_grow)
    ff_b;
  {
    regressions = List.rev !regressions;
    notes = List.rev !notes;
    checked = !checked;
  }

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
  let regressions = ref [] in
  let notes = ref [] in
  let checked = ref 0 in
  let reg fmt = Printf.ksprintf (fun m -> regressions := m :: !regressions) fmt in
  let note fmt = Printf.ksprintf (fun m -> notes := m :: !notes) fmt in
  let passes v =
    Option.value ~default:[] (Option.bind (member "passes" v) arr)
  in
  let pass_name p = Option.value ~default:"?" (Option.bind (member "pass" p) str) in
  let obls p =
    Option.value ~default:[] (Option.bind (member "obligations" p) arr)
  in
  let obl_id o = Option.bind (member "id" o) num in
  let obl_verdict o =
    Option.value ~default:"?" (Option.bind (member "verdict" o) str)
  in
  let obl_rewrite o =
    Option.value ~default:"?" (Option.bind (member "rewrite" o) str)
  in
  let base_b = benchmarks_of baseline and cur_b = benchmarks_of current in
  let find name l = List.find_opt (fun b -> name_of b = name) l in
  (* any current failure is a hard failure, gated or not *)
  List.iter
    (fun cb ->
      List.iter
        (fun cp ->
          List.iter
            (fun o ->
              if obl_verdict o = "failed" then
                reg "%s/%s: obligation #%g (%s) FAILED in the current run"
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
          reg "%s: benchmark present in baseline but missing from current run"
            bname
      | Some cb ->
          List.iter
            (fun bp ->
              let pname = pass_name bp in
              match
                List.find_opt (fun cp -> pass_name cp = pname) (passes cb)
              with
              | None ->
                  reg "%s: pass %s present in baseline but missing from \
                       current run"
                    bname pname
              | Some cp ->
                  (* aggregate counts: emitted and proved must not drop *)
                  List.iter
                    (fun field ->
                      match (num_at [ field ] bp, num_at [ field ] cp) with
                      | Some b, Some c ->
                          incr checked;
                          if c < b then
                            reg "%s/%s: %s count dropped %g -> %g" bname pname
                              field b c
                          else if c > b then
                            note
                              "%s/%s: %s count grew %g -> %g - consider \
                               refreshing the baseline"
                              bname pname field b c
                      | _ -> ())
                    [ "emitted"; "proved" ];
                  (* per-obligation verdicts, matched by id *)
                  let cur_obls = obls cp in
                  List.iter
                    (fun bo ->
                      match obl_id bo with
                      | None -> ()
                      | Some id -> (
                          match
                            List.find_opt (fun co -> obl_id co = Some id)
                              cur_obls
                          with
                          | None ->
                              reg
                                "%s/%s: obligation #%g (%s) disappeared from \
                                 the current run"
                                bname pname id (obl_rewrite bo)
                          | Some co ->
                              incr checked;
                              let bv = obl_verdict bo and cv = obl_verdict co in
                              if verdict_rank cv < verdict_rank bv then
                                reg
                                  "%s/%s: obligation #%g (%s) weakened %s -> \
                                   %s"
                                  bname pname id (obl_rewrite bo) bv cv
                              else if verdict_rank cv > verdict_rank bv then
                                note
                                  "%s/%s: obligation #%g strengthened %s -> \
                                   %s - consider refreshing the baseline"
                                  bname pname id bv cv))
                    (obls bp);
                  let base_ids =
                    List.filter_map obl_id (obls bp)
                  in
                  List.iter
                    (fun co ->
                      match obl_id co with
                      | Some id when not (List.mem id base_ids) ->
                          note
                            "%s/%s: new obligation #%g (%s) not in baseline - \
                             refresh to start gating it"
                            bname pname id (obl_rewrite co)
                      | _ -> ())
                    cur_obls)
            (passes bb);
          List.iter
            (fun cp ->
              let pname = pass_name cp in
              if
                List.find_opt (fun bp -> pass_name bp = pname) (passes bb)
                = None
              then
                note "%s: new pass %s not in baseline - refresh to start \
                      gating it"
                  bname pname)
            (passes cb))
    base_b;
  List.iter
    (fun cb ->
      let cname = name_of cb in
      if find cname base_b = None then
        note "%s: new benchmark not in baseline - refresh to start gating it"
          cname)
    cur_b;
  {
    regressions = List.rev !regressions;
    notes = List.rev !notes;
    checked = !checked;
  }

let report ?(label = "bench gate") (g : gate) : string =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "%s: %d comparisons, %d regression(s), %d note(s)\n" label
       g.checked
       (List.length g.regressions)
       (List.length g.notes));
  List.iter
    (fun r -> Buffer.add_string buf (Printf.sprintf "REGRESSION %s\n" r))
    g.regressions;
  List.iter (fun m -> Buffer.add_string buf (Printf.sprintf "note %s\n" m)) g.notes;
  Buffer.contents buf

let ok (g : gate) = g.regressions = []
