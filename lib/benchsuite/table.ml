(* Table construction and rendering for the experiment harness.

   Each benchmark reproduces one of the paper's Tables I-VII: rows are
   (device, dataset), columns are the reference implementation's
   simulated time, every pipeline variant's performance *relative to
   the reference* (higher = faster, as in the paper), and the
   optimization impact
   (unoptimized time / optimized time).  The paper's published numbers
   ride along so every rendering shows measured-vs-paper side by
   side. *)

type row = {
  device : string;
  dataset : string;
  ref_s : float; (* simulated reference time, seconds *)
  times : (string * float) list;
      (* modeled time of each pipeline variant, seconds, in ladder
         order (Core.Pipeline.variants) *)
  paper : (float * float * float * float) option;
      (* (ref ms, unopt x, opt x, impact) published in the paper *)
}

type t = {
  title : string; (* e.g. "Table I: NW performance" *)
  runs : int; (* the paper's repetition count, for the header *)
  rows : row list;
}

(* Derived columns: milliseconds per variant, performance relative to
   the reference per variant (ref_time / time), and the impact of each
   optimized variant (first variant's time / its time). *)
let ms r = List.map (fun (v, t) -> (v, t *. 1e3)) r.times
let rels r = List.map (fun (v, t) -> (v, r.ref_s /. t)) r.times

let impacts_of r =
  match r.times with
  | (_, base) :: rest -> List.map (fun (v, t) -> (v, base /. t)) rest
  | [] -> []

(* the paper's impact column: unoptimized time / short-circuited time *)
let impact r = List.assoc "opt" (impacts_of r)

(* header titles of the variant columns *)
let title = function
  | ("unopt" | "opt") as v -> String.capitalize_ascii v ^ "."
  | v -> String.capitalize_ascii v

let pp ppf (t : t) =
  let cols = Core.Pipeline.variant_names in
  Fmt.pf ppf "%s (%d runs)@." t.title t.runs;
  Fmt.pf ppf "%-6s %-9s | %10s%s %8s | %s@." "Device" "Dataset" "Ref."
    (String.concat "" (List.map (fun v -> Fmt.str " %8s" (title v)) cols))
    "Impact" "Paper (Ref/Unopt/Opt/Impact)";
  Fmt.pf ppf "%s@." (String.make 117 '-');
  List.iter
    (fun r ->
      let paper =
        match r.paper with
        | Some (rm, u, o, i) ->
            Printf.sprintf "%gms / %.2fx / %.2fx / %.2fx" rm u o i
        | None -> "-"
      in
      Fmt.pf ppf "%-6s %-9s | %8.2fms%s %7.2fx | %s@." r.device r.dataset
        (r.ref_s *. 1e3)
        (String.concat ""
           (List.map (fun (_, x) -> Printf.sprintf " %7.2fx" x) (rels r)))
        (impact r) paper)
    t.rows

let to_string t = Fmt.str "%a" pp t

(* Shape checks used by the test-suite: the qualitative claims of the
   paper's evaluation that must survive the simulation substitution. *)
let impacts t = List.map impact t.rows

let min_impact t = List.fold_left Float.min infinity (impacts t)
let max_impact t = List.fold_left Float.max neg_infinity (impacts t)
