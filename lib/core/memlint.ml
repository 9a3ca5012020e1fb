(* Memlint: a static verifier for the memory IR (run between pipeline
   passes).

   Every pass of the memory pipeline - introduction, hoisting, last-use,
   short-circuiting, cleanup - preserves a set of invariants that the
   paper states informally and the executor silently relies on.  This
   module checks them per statement:

   - *alloc dominance & sizing*: every memory annotation names a block
     allocated (in scope) before the binding, its index function only
     mentions in-scope scalars, and the footprint of its memory-side
     LMAD provably fits in [0, size) of the block (discharged with
     {!Symalg.Prover.check_in_range} over {!Lmads.Lmad.bounds});

   - *alias / annotation consistency*: change-of-layout operations
     (slice, transpose, reshape, reverse, variable copy) share their
     operand's block with the correspondingly transformed index
     function; [EUpdate] results stay in the destination's block with
     its index function; and an update whose source array lives in the
     destination's block (a short-circuited copy) must be the source's
     last use, or the later reads observe the overwrite;

   - *existential well-formedness*: [if]/[loop] array results follow
     memintro's [mem, witness..., array] grouping, each branch/body
     returns the block its result actually lives in, and the branch
     witnesses instantiate the anti-unified index function;

   - *mapnest write races*: the per-thread writes to enclosing memory
     (implicit result-slot writes and in-place updates), with the nest
     variables case-split exactly like the short-circuiting pass, must
     be pairwise disjoint across threads.

   Verdicts are three-valued: a violation is an [Error] only when it is
   *provable* (a structurally wrong block, a footprint proved out of
   bounds, a write set provably shared by all threads); everything the
   sound-but-incomplete prover cannot decide is a [Warning].  Hence a
   correct program never errors, and the seven benchmark programs lint
   clean at every stage.

   The input program is cloned before checking (last-use annotations
   are recomputed on the clone), so [check] never mutates its input. *)

open Ir.Ast
module P = Symalg.Poly
module Pr = Symalg.Prover
module Lmad = Lmads.Lmad
module Ixfn = Lmads.Ixfn
module Refset = Lmads.Refset
module SM = Map.Make (String)
module SS = Ir.Ast.SS

type severity = Error | Warning

type violation = {
  severity : severity;
  rule : string; (* alloc-dominance | footprint | layout | last-use
                    | existential | write-race | reuse *)
  binding : string; (* the pattern variable the violation is about *)
  detail : string;
}

type report = {
  program : string;
  stage : string;
  stms : int; (* statements traversed *)
  annotations : int; (* memory annotations checked *)
  bounds_proved : int; (* footprints proved in bounds *)
  bounds_undecided : int;
  races_proved : int; (* mapnest write sets proved disjoint *)
  races_undecided : int;
  reuse_proved : int; (* same-block live-range overlaps proved disjoint *)
  reuse_undecided : int;
  reuse_holes : int;
      (* same-block pairs accepted through the liveness exemption: the
         earlier binding's live range ends before the later one writes
         - a lifetime hole, the sharing the packer certifies *)
  violations : violation list;
}

let errors r = List.filter (fun v -> v.severity = Error) r.violations
let warnings r = List.filter (fun v -> v.severity = Warning) r.violations
let ok r = errors r = []

let pp_violation ppf v =
  Fmt.pf ppf "%s [%s] %s: %s"
    (match v.severity with Error -> "error " | Warning -> "warning")
    v.rule v.binding v.detail

let pp_report ppf r =
  let n_err = List.length (errors r)
  and n_warn = List.length (warnings r) in
  Report.section
    ~title:
      (Fmt.str "memlint %s%s" r.program
         (if r.stage = "" then "" else " @ " ^ r.stage))
    ppf
    [
      ("statements", string_of_int r.stms);
      ("annotations checked", string_of_int r.annotations);
      ( "footprint bounds",
        Fmt.str "%d proved, %d undecided" r.bounds_proved r.bounds_undecided
      );
      ( "mapnest write races",
        Fmt.str "%d proved disjoint, %d undecided" r.races_proved
          r.races_undecided );
      ( "block reuse",
        Fmt.str "%d proved disjoint, %d undecided, %d hole-exempt"
          r.reuse_proved r.reuse_undecided r.reuse_holes );
      ("errors / warnings", Fmt.str "%d / %d" n_err n_warn);
    ];
  if r.violations <> [] then
    Fmt.pf ppf "@,%a" (Report.items ~bullet:"-" pp_violation) r.violations

(* ---------------------------------------------------------------- *)
(* Checker state                                                     *)
(* ---------------------------------------------------------------- *)

(* Lexical environment, threaded functionally so block scoping falls
   out of recursion. *)
type env = {
  sizes : P.t option SM.t;
      (* memory blocks in scope; [Some size] when the element count is
         known (EAlloc, input arrays), [None] for existential blocks *)
  types : typ SM.t;
  mems : mem_info SM.t; (* array variable -> its annotation *)
  scalars : P.t P.SM.t; (* i64 definitions, for witness resolution *)
}

type acc = {
  mutable n_stms : int;
  mutable n_annots : int;
  mutable n_bounds_proved : int;
  mutable n_bounds_undec : int;
  mutable n_races_proved : int;
  mutable n_races_undec : int;
  mutable n_reuse_proved : int;
  mutable n_reuse_undec : int;
  mutable n_reuse_holes : int;
  mutable viols : violation list; (* reversed *)
  aliases : Alias.t;
}

let report acc severity rule binding fmt =
  Fmt.kstr
    (fun detail ->
      acc.viols <- { severity; rule; binding; detail } :: acc.viols)
    fmt

(* Resolve scalar definitions down to program parameters / loop
   variables, so the prover and structural equality see through
   materialized witnesses ([let w = EIdx p]). *)
let resolve env p =
  try P.subst_fixpoint env.scalars p with Failure _ -> p

let resolve_ixfn env ix =
  try Ixfn.subst_fixpoint env.scalars ix with Failure _ -> ix

let resolve_lmad env l =
  try Lmad.subst_fixpoint env.scalars l with Failure _ -> l

let atom_poly = function
  | Int c -> Some (P.const c)
  | Var v -> Some (P.var v)
  | _ -> None

(* i64 scalar definitions usable for resolution (mirrors the table the
   short-circuiting pass builds). *)
let scalar_def (s : stm) : (string * P.t) option =
  match (s.pat, s.exp) with
  | [ pe ], EIdx p when pe.pt = TScalar I64 -> Some (pe.pv, p)
  | [ pe ], EAtom (Int c) when pe.pt = TScalar I64 -> Some (pe.pv, P.const c)
  | [ pe ], EAtom (Var v) when pe.pt = TScalar I64 -> Some (pe.pv, P.var v)
  | [ pe ], EBin (op, a, b) when pe.pt = TScalar I64 -> (
      match (atom_poly a, atom_poly b) with
      | Some pa, Some pb -> (
          match op with
          | Add -> Some (pe.pv, P.add pa pb)
          | Sub -> Some (pe.pv, P.sub pa pb)
          | Mul -> Some (pe.pv, P.mul pa pb)
          | _ -> None)
      | _ -> None)
  | _ -> None

let slice_to_lmad_dims sds =
  List.map
    (function
      | SFix i -> Lmad.Fix i
      | SRange { start; len; step } -> Lmad.Range { start; len; step })
    sds

let sliced_ixfn ctx (slc : slice) (ixfn : Ixfn.t) : Ixfn.t option =
  match slc with
  | STriplet sds -> (
      try Some (Ixfn.slice (slice_to_lmad_dims sds) ixfn)
      with Invalid_argument _ -> None)
  | SLmad l -> Ixfn.lmad_slice ctx ~slc:l ixfn

(* The LMAD adjacent to memory: for a chain, the footprint is a subset
   of the last link's point set, so bounding it is sound. *)
let memory_lmad ixfn =
  match List.rev (Ixfn.chain ixfn) with
  | l :: _ -> l
  | [] ->
      Fault.internal ~where:"Memlint.memory_lmad" "empty index-function chain"

(* ---------------------------------------------------------------- *)
(* Per-annotation checks                                             *)
(* ---------------------------------------------------------------- *)

let check_footprint acc env ctx ~who (m : mem_info) =
  match SM.find_opt m.block env.sizes with
  | None | Some None -> ()
  | Some (Some size) -> (
      let l = resolve_lmad env (memory_lmad m.ixfn) in
      match Lmad.bounds ctx l with
      | None -> () (* possibly-empty or sign-undecided: nothing provable *)
      | Some (lo, hi) -> (
          let last = P.sub (resolve env size) P.one in
          match
            ( Pr.check_in_range ctx lo ~lo:P.zero ~hi:last,
              Pr.check_in_range ctx hi ~lo:P.zero ~hi:last )
          with
          | Pr.Out_of_range, _ | _, Pr.Out_of_range ->
              report acc Error "footprint" who
                "footprint [%a, %a] provably exceeds block %s of size %a"
                P.pp lo P.pp hi m.block P.pp size
          | Pr.In_range, Pr.In_range ->
              acc.n_bounds_proved <- acc.n_bounds_proved + 1
          | _ ->
              acc.n_bounds_undec <- acc.n_bounds_undec + 1;
              report acc Warning "footprint" who
                "cannot prove footprint of block %s within [0, %a)" m.block
                P.pp size))

(* Generic checks on one annotation: block in scope, index function
   closed under the scope, rank agreement, footprint in bounds. *)
let check_annot acc env ctx (pe : pat_elem) =
  match pe.pmem with
  | None -> report acc Error "alloc-dominance" pe.pv "missing memory annotation"
  | Some m ->
      acc.n_annots <- acc.n_annots + 1;
      if not (SM.mem m.block env.sizes) then
        report acc Error "alloc-dominance" pe.pv
          "memory block %s is not allocated in scope" m.block;
      List.iter
        (fun v ->
          if not (SM.mem v env.types) then
            report acc Error "alloc-dominance" pe.pv
              "index function mentions out-of-scope variable %s" v)
        (Ixfn.vars m.ixfn);
      if Ixfn.rank m.ixfn <> typ_rank pe.pt then
        report acc Error "layout" pe.pv
          "index function rank %d does not match array rank %d"
          (Ixfn.rank m.ixfn) (typ_rank pe.pt)
      else if
        not
          (List.for_all2
             (fun a b -> P.equal (resolve env a) (resolve env b))
             (Ixfn.shape m.ixfn) (typ_shape pe.pt))
      then
        report acc Error "layout" pe.pv
          "index function shape does not match the array type's shape";
      check_footprint acc env ctx ~who:pe.pv m

let operand_mem acc env ~who v =
  match SM.find_opt v env.mems with
  | Some m -> Some m
  | None ->
      report acc Error "alloc-dominance" who
        "array operand %s has no memory annotation" v;
      None

(* Views must share the operand's block with the transformed index
   function (section IV-B: change of layout is free, not a move). *)
let check_view acc env ctx (s : stm) v (transform : Ixfn.t -> Ixfn.t option) =
  match s.pat with
  | [ pe ] -> (
      match (pe.pmem, operand_mem acc env ~who:pe.pv v) with
      | Some m, Some mv -> (
          if m.block <> mv.block then
            report acc Error "layout" pe.pv
              "change-of-layout result lives in block %s, operand %s in %s"
              m.block v mv.block;
          match transform mv.ixfn with
          | None -> ()
          | Some expect ->
              if
                not
                  (Ixfn.equal (resolve_ixfn env expect)
                     (resolve_ixfn env m.ixfn))
              then
                report acc Error "layout" pe.pv
                  "index function is not the transformed index function of %s"
                  v)
      | _ -> ignore ctx)
  | _ -> ()

(* ---------------------------------------------------------------- *)
(* Existential grouping (memintro's [mem, witness..., array])        *)
(* ---------------------------------------------------------------- *)

type egroup = {
  mem_name : string;
  mem_pos : int;
  wit_names : string list;
  wit_pos : int list;
  arr_pe : pat_elem;
  arr_pos : int;
}

(* Decompose an if/loop pattern into existential groups, reporting
   structural violations (a memory binder not followed by an array
   result).  Scalars outside groups pass through. *)
let pattern_groups acc ~who (pat : pat_elem list) : egroup list =
  let groups = ref [] in
  let current = ref None in
  List.iteri
    (fun i pe ->
      match (pe.pt, !current) with
      | TMem, None -> current := Some (pe.pv, i, [])
      | TMem, Some (m, _, _) ->
          report acc Error "existential" who
            "memory binder %s not followed by an array result" m;
          current := Some (pe.pv, i, [])
      | TScalar I64, Some (m, mi, wits) ->
          current := Some (m, mi, wits @ [ (pe.pv, i) ])
      | TArr _, Some (m, mi, wits) ->
          groups :=
            {
              mem_name = m;
              mem_pos = mi;
              wit_names = List.map fst wits;
              wit_pos = List.map snd wits;
              arr_pe = pe;
              arr_pos = i;
            }
            :: !groups;
          current := None
      | _, Some (m, _, _) ->
          report acc Error "existential" who
            "memory binder %s followed by a non-witness binder %s" m pe.pv;
          current := None
      | _, None -> ())
    pat;
  (match !current with
  | Some (m, _, _) ->
      report acc Error "existential" who
        "memory binder %s not followed by an array result" m
  | None -> ());
  List.rev !groups

(* Check one branch/body result list against one group.  [env_inner] is
   the environment after the branch body; [subst_atoms] maps witness
   binder names to the branch's witness results for the instantiation
   check, which only applies in strict mode (the array binder still
   lives in the group's existential block - short-circuiting may
   legitimately redirect it into the destination's block, in which case
   the branch result must simply live in that same block). *)
let check_group_results acc env_inner ~who ~what (g : egroup)
    ~(outer_mem : mem_info) (results : atom list) =
  let nth_opt = List.nth_opt results in
  let strict = outer_mem.block = g.mem_name in
  (match nth_opt g.mem_pos with
  | Some (Var bm) -> (
      match SM.find_opt bm env_inner.types with
      | Some TMem ->
          if not (SM.mem bm env_inner.sizes) then
            report acc Error "existential" who
              "%s returns memory %s which is not in scope" what bm
      | _ ->
          report acc Error "existential" who
            "%s returns non-memory %s in the memory position" what bm)
  | _ ->
      report acc Error "existential" who
        "%s memory position is not a variable" what);
  List.iter
    (fun wp ->
      match nth_opt wp with
      | Some (Int _) -> ()
      | Some (Var w) ->
          if SM.find_opt w env_inner.types <> Some (TScalar I64) then
            report acc Error "existential" who
              "%s witness position returns non-i64 %s" what w
      | _ ->
          report acc Error "existential" who
            "%s witness position is not an i64 atom" what)
    g.wit_pos;
  match nth_opt g.arr_pos with
  | Some (Var rv) -> (
      match SM.find_opt rv env_inner.mems with
      | None ->
          report acc Error "existential" who
            "%s returns array %s without a memory annotation" what rv
      | Some mrv ->
          let branch_mem =
            match nth_opt g.mem_pos with Some (Var bm) -> Some bm | _ -> None
          in
          if strict then begin
            (if branch_mem <> Some mrv.block then
               report acc Error "existential" who
                 "%s returns array %s in block %s but witnesses block %s"
                 what rv mrv.block
                 (Option.value ~default:"?" branch_mem));
            (* the witness atoms must instantiate the anti-unified
               (outer) index function to the branch's *)
            let subst =
              List.fold_left2
                (fun m w wp ->
                  match Option.bind (nth_opt wp) atom_poly with
                  | Some p -> P.SM.add w p m
                  | None -> m)
                P.SM.empty g.wit_names g.wit_pos
            in
            let expect =
              resolve_ixfn env_inner (Ixfn.subst_map subst outer_mem.ixfn)
            in
            if not (Ixfn.equal expect (resolve_ixfn env_inner mrv.ixfn)) then
              report acc Error "existential" who
                "%s witnesses do not instantiate the existential index \
                 function of %s"
                what rv
          end
          else if mrv.block <> outer_mem.block then
            (* redirected (short-circuited) existential: the branch must
               return the array in the very block the binding claims *)
            report acc Error "existential" who
              "%s returns array %s in block %s, but the binding is \
               annotated with block %s"
              what rv mrv.block outer_mem.block)
  | _ ->
      report acc Error "existential" who "%s array position is not a variable"
        what

(* ---------------------------------------------------------------- *)
(* Mapnest write races                                               *)
(* ---------------------------------------------------------------- *)

(* All writes a thread performs into enclosing memory: in-place updates
   (recursively, aggregated over inner loop/nest variables) plus the
   implicit write of each array result into its slot.  Grouped by
   block; offsets in different blocks are incomparable. *)
let thread_writes env_outer env_body ctx ~nest ~(body : block)
    (pat : pat_elem list) : (string * Refset.t) list =
  let tbl = Hashtbl.create 8 in
  let add block set =
    let prev =
      match Hashtbl.find_opt tbl block with
      | Some s -> s
      | None -> Refset.empty
    in
    Hashtbl.replace tbl block (Refset.union prev set)
  in
  let set_of ix =
    match Ixfn.accessed_set (resolve_ixfn env_body ix) with
    | Some l -> Refset.of_lmad l
    | None -> Refset.top
  in
  (* updates targeting enclosing blocks, anywhere in the body; inner
     iteration variables are aggregated away by dimension promotion *)
  let rec updates inner_loops (b : block) =
    List.iter
      (fun s ->
        (match s.exp with
        | EUpdate { dst; slc; _ } -> (
            match SM.find_opt dst env_body.mems with
            | Some mdst when SM.mem mdst.block env_outer.sizes -> (
                match sliced_ixfn ctx slc mdst.ixfn with
                | Some ix ->
                    let set =
                      List.fold_left
                        (fun acc (v, cnt) ->
                          Refset.expand_loop ctx v ~count:cnt acc)
                        (set_of ix) inner_loops
                    in
                    add mdst.block set
                | None -> add mdst.block Refset.top)
            | _ -> ())
        | _ -> ());
        match s.exp with
        | ELoop { var; bound; body; _ } ->
            updates ((var, bound) :: inner_loops) body
        | EMap { nest = n2; body; _ } ->
            updates (List.rev_append n2 inner_loops) body
        | EIf { tb; fb; _ } ->
            updates inner_loops tb;
            updates inner_loops fb
        | _ -> ())
      b.stms
  in
  updates [] body;
  (* implicit result-slot writes *)
  List.iteri
    (fun k pe ->
      match pe.pmem with
      | Some m when is_array_typ pe.pt -> (
          let res_rebased =
            match List.nth_opt body.res k with
            | Some (Var rv) -> (
                match SM.find_opt rv env_body.mems with
                | Some mrv when mrv.block = m.block ->
                    (* the body result was rebased into its slot: its
                       own accesses are the thread's writes *)
                    Some (set_of mrv.ixfn)
                | _ -> None)
            | _ -> None
          in
          match res_rebased with
          | Some set -> add m.block set
          | None ->
              (* thread-local result copied into the slot *)
              let shape = Ixfn.shape m.ixfn in
              let rec drop n l =
                if n = 0 then l
                else match l with _ :: r -> drop (n - 1) r | [] -> []
              in
              let slc =
                List.map (fun (v, _) -> Lmad.Fix (P.var v)) nest
                @ List.map
                    (fun d ->
                      Lmad.Range { start = P.zero; len = d; step = P.one })
                    (drop (List.length nest) shape)
              in
              add m.block (set_of (Ixfn.slice slc m.ixfn)))
      | _ -> ())
    pat;
  Hashtbl.fold (fun b s l -> (b, s) :: l) tbl []

(* Case-split on the first differing nest dimension, exactly like the
   short-circuiting pass: dimensions before it coincide, it is strictly
   smaller / strictly larger, dimensions after it range freely. *)
let pairwise_threads_disjoint ctx (nest : (string * P.t) list) w : bool =
  let ctx =
    List.fold_left
      (fun ctx (v, cnt) ->
        Pr.add_range ctx v ~lo:P.zero ~hi:(P.sub cnt P.one) ())
      ctx nest
  in
  let expand_rest rs rest =
    List.fold_left
      (fun acc (v, c) -> Refset.expand_loop ctx v ~count:c acc)
      rs rest
  in
  let rec cases = function
    | [] -> true
    | (v, cnt) :: rest ->
        (* the other thread's index is named deterministically, in a
           namespace neither the lexer nor Ir.Names can produce, so the
           same query repeats verbatim and hits the prover memo *)
        let jv = "lint#othr_" ^ v in
        let w_self = expand_rest w rest in
        let w_other = expand_rest (Refset.subst v (P.var jv) w) rest in
        let ctx_lt =
          Pr.add_range ctx jv ~lo:P.zero ~hi:(P.sub (P.var v) P.one) ()
        in
        let ctx_gt =
          Pr.add_range ctx jv
            ~lo:(P.add (P.var v) P.one)
            ~hi:(P.sub cnt P.one) ()
        in
        Refset.disjoint ctx_lt w_self w_other
        && Refset.disjoint ctx_gt w_self w_other
        && cases rest
  in
  cases nest

(* A write set provably shared by distinct threads: independent of every
   nest variable, provably nonempty, with at least two threads. *)
let provable_race ctx nest w =
  let nest_vars = List.map fst nest in
  let independent =
    match w with
    | Refset.Top -> false
    | Refset.Union ls ->
        ls <> []
        && List.for_all
             (fun l ->
               not (List.exists (fun v -> List.mem v nest_vars) (Lmad.vars l)))
             ls
  in
  independent
  && (match w with
     | Refset.Union (l :: _) -> Lmad.bounds ctx l <> None
     | _ -> false)
  && List.exists
       (fun (_, cnt) -> Pr.prove_ge ctx cnt (P.const 2))
       nest

let check_map_races acc env env_body ctx ~who ~nest ~body pat =
  let ctx_i =
    List.fold_left
      (fun ctx (v, cnt) ->
        Pr.add_range ctx v ~lo:P.zero ~hi:(P.sub cnt P.one) ())
      ctx nest
  in
  List.iter
    (fun (block, w) ->
      if pairwise_threads_disjoint ctx nest w then
        acc.n_races_proved <- acc.n_races_proved + 1
      else if provable_race ctx_i nest w then
        report acc Error "write-race" who
          "distinct threads provably write the same locations of block %s"
          block
      else begin
        acc.n_races_undec <- acc.n_races_undec + 1;
        report acc Warning "write-race" who
          "cannot prove per-thread writes to block %s disjoint" block
      end)
    (thread_writes env env_body ctx_i ~nest ~body pat)

(* ---------------------------------------------------------------- *)
(* Statement / block traversal                                        *)
(* ---------------------------------------------------------------- *)

let bind_pat env (s : stm) (pe : pat_elem) =
  let sizes =
    match (pe.pt, s.exp) with
    | TMem, EAlloc size -> SM.add pe.pv (Some size) env.sizes
    | TMem, _ -> SM.add pe.pv None env.sizes
    | _ -> env.sizes
  in
  let mems =
    match pe.pmem with
    | Some m when is_array_typ pe.pt -> SM.add pe.pv m env.mems
    | _ -> env.mems
  in
  { env with sizes; mems; types = SM.add pe.pv pe.pt env.types }

let check_update acc env ctx (s : stm) ~dst ~slc ~src =
  match s.pat with
  | [ pe ] -> (
      match (pe.pmem, operand_mem acc env ~who:pe.pv dst) with
      | Some m, Some mdst -> (
          if m.block <> mdst.block then
            report acc Error "layout" pe.pv
              "update result lives in block %s, destination %s in %s" m.block
              dst mdst.block
          else if
            not
              (Ixfn.equal (resolve_ixfn env m.ixfn) (resolve_ixfn env mdst.ixfn))
          then
            report acc Error "layout" pe.pv
              "update result's index function differs from destination %s's"
              dst;
          (* the written slice must stay within the destination block *)
          (match sliced_ixfn ctx slc mdst.ixfn with
          | Some wix ->
              check_footprint acc env ctx ~who:pe.pv
                { block = mdst.block; ixfn = wix }
          | None -> ());
          (* a source living in the destination's block is a
             short-circuited copy: it must be lastly used here, or later
             reads of it observe this (and subsequent) overwrites *)
          match src with
          | SrcArr b -> (
              match SM.find_opt b env.mems with
              | Some mb
                when mb.block = mdst.block
                     && (not (SS.mem b (Alias.closure acc.aliases dst)))
                     && not (List.mem b s.last_uses) ->
                  let wset =
                    match
                      Option.bind
                        (Option.map (resolve_ixfn env)
                           (sliced_ixfn ctx slc mdst.ixfn))
                        Ixfn.accessed_set
                    with
                    | Some l -> Refset.of_lmad l
                    | None -> Refset.top
                  in
                  let bset =
                    match Ixfn.accessed_set (resolve_ixfn env mb.ixfn) with
                    | Some l -> Refset.of_lmad l
                    | None -> Refset.top
                  in
                  if not (Refset.disjoint ctx wset bset) then
                    report acc Error "last-use" pe.pv
                      "source %s shares block %s with the destination but \
                       is used again after this update"
                      b mdst.block
              | _ -> ())
          | SrcScalar _ -> ())
      | _ -> ())
  | _ -> ()

(* Scalar reads: only provable out-of-bounds indices are reported (the
   prover cannot see branch conditions, so undecided is silent). *)
let check_index acc env ctx ~who v idxs =
  match SM.find_opt v env.types with
  | Some (TArr (_, shape)) when List.length shape = List.length idxs ->
      List.iter2
        (fun i d ->
          match
            Pr.check_in_range ctx (resolve env i) ~lo:P.zero
              ~hi:(P.sub (resolve env d) P.one)
          with
          | Pr.Out_of_range ->
              report acc Error "footprint" who
                "index %a of %s provably outside [0, %a)" P.pp i v P.pp d
          | _ -> ())
        idxs shape
  | _ -> ()

let rec check_block acc env ctx (b : block) : env =
  let env' = List.fold_left (fun env s -> check_stm acc env ctx s) env b.stms in
  check_reuse acc env' ctx b;
  env'

(* Memory-block reuse discipline (the {!Reuse} pass's contract): two
   arrays bound at the same lexical level into the same block must not
   have overlapping live ranges - unless they alias each other (views
   of the same data), the data demonstrably flows between them through
   the block (a statement reading one while binding an array into the
   block: the short-circuited concat/update/mapnest circuits), or
   their footprints are provably disjoint.  A live range runs from the
   binding statement to the last statement referencing the array or
   any alias of it (the block result counts as one past the end).

   A violation is an [Error] only when the clobber is total: the two
   memory-side LMADs are structurally equal, so the later binding
   provably overwrites every element of the earlier one while it is
   still read.  Anything the prover cannot separate is a [Warning]. *)
and check_reuse acc env ctx (b : block) =
  let stms = Array.of_list b.stms in
  let n = Array.length stms in
  (* last textual reference of each variable at this level; nested
     bodies count toward their enclosing statement's index *)
  let last_ref = Hashtbl.create 16 in
  Array.iteri
    (fun j s -> SS.iter (fun v -> Hashtbl.replace last_ref v j) (fv_stm s))
    stms;
  List.iter
    (function Var v -> Hashtbl.replace last_ref v n | _ -> ())
    b.res;
  let ref_of v =
    match Hashtbl.find_opt last_ref v with Some j -> j | None -> -1
  in
  let live_end v i =
    SS.fold
      (fun w e -> max e (ref_of w))
      (Alias.closure acc.aliases v)
      (max i (ref_of v))
  in
  (* data flows from the earlier array [va] into the later binding
     [vb] through block [blk]: the statement that binds [vb] itself
     (or an alias of [vb]) into the block reads [va] or an alias of it
     (concat parts, update circuits, mapnest results) - the overlap is
     then the point of the reuse, not a clobber of live contents.  An
     unrelated flow-through statement elsewhere in the block must NOT
     exempt the pair: the reuse rule is the coalescer's safety net,
     and a genuine clobber can share a block with an innocent circuit. *)
  let justified blk va vb =
    let va_closure = Alias.closure acc.aliases va in
    let vb_closure = Alias.closure acc.aliases vb in
    Array.exists
      (fun s ->
        (not (SS.is_empty (SS.inter va_closure (fv_stm s))))
        && List.exists
             (fun pe ->
               is_array_typ pe.pt
               && SS.mem pe.pv vb_closure
               && match pe.pmem with
                  | Some m -> m.block = blk
                  | None -> false)
             s.pat)
      stms
  in
  (* arrays bound at this level, grouped by block name, in binding
     order.  Scratch bindings declare a layout without writing, so
     they cannot clobber anything: skip them as the later binding. *)
  let binds = Hashtbl.create 8 in
  Array.iteri
    (fun i s ->
      List.iter
        (fun pe ->
          match pe.pmem with
          | Some m when is_array_typ pe.pt ->
              let prev =
                Option.value ~default:[] (Hashtbl.find_opt binds m.block)
              in
              let writes = match s.exp with EScratch _ -> false | _ -> true in
              Hashtbl.replace binds m.block ((pe.pv, i, m, writes) :: prev)
        | _ -> ())
        s.pat)
    stms;
  Hashtbl.iter
    (fun blk entries ->
      let entries = List.rev entries (* binding order *) in
      let rec pairs = function
        | [] -> ()
        | (va, ia, ma, _) :: rest ->
            List.iter
              (fun (vb, ib, mb, wb) ->
                if wb && ib >= live_end va ia then
                  (* the earlier binding is dead by the time the later
                     one writes: hole sharing, accepted through the
                     liveness exemption and counted so the packer's
                     holes stay observable here *)
                  acc.n_reuse_holes <- acc.n_reuse_holes + 1
                else if wb then
                  if
                    SS.mem vb (Alias.closure acc.aliases va)
                    || justified blk va vb
                  then ()
                  else
                    let la = resolve_lmad env (memory_lmad ma.ixfn)
                    and lb = resolve_lmad env (memory_lmad mb.ixfn) in
                    if
                      Refset.disjoint ctx (Refset.of_lmad la)
                        (Refset.of_lmad lb)
                    then acc.n_reuse_proved <- acc.n_reuse_proved + 1
                    else if Lmad.equal la lb then
                      report acc Error "reuse" vb
                        "rebinds block %s with the footprint of %s, which is \
                         still live (read after this binding)"
                        blk va
                    else begin
                      acc.n_reuse_undec <- acc.n_reuse_undec + 1;
                      report acc Warning "reuse" vb
                        "shares block %s with %s while both are live; cannot \
                         prove their footprints disjoint"
                        blk va
                    end)
              rest;
            pairs rest
      in
      pairs entries)
    binds

and check_stm acc env ctx (s : stm) : env =
  acc.n_stms <- acc.n_stms + 1;
  (match s.exp with
  | EAtom (Var v) when s.pat <> [] && is_array_typ (List.hd s.pat).pt ->
      check_view acc env ctx s v (fun ix -> Some ix)
  | ESlice (v, slc) -> check_view acc env ctx s v (sliced_ixfn ctx slc)
  | ETranspose (v, perm) ->
      check_view acc env ctx s v (fun ix ->
          try Some (Ixfn.permute perm ix) with Invalid_argument _ -> None)
  | EReverse (v, d) ->
      check_view acc env ctx s v (fun ix ->
          try Some (Ixfn.reverse d ix) with Invalid_argument _ -> None)
  | EReshape (v, shape) ->
      check_view acc env ctx s v (fun ix ->
          try Some (Ixfn.reshape ctx shape ix) with Invalid_argument _ -> None)
  | EUpdate { dst; slc; src } -> check_update acc env ctx s ~dst ~slc ~src
  | EIndex (v, idxs) -> check_index acc env ctx ~who:v v idxs
  | EMap { nest; body } ->
      let who =
        match s.pat with pe :: _ -> pe.pv | [] -> "<mapnest>"
      in
      let env_nest =
        List.fold_left
          (fun e (v, _) ->
            { e with types = SM.add v (TScalar I64) e.types })
          env nest
      in
      let ctx_i =
        List.fold_left
          (fun ctx (v, cnt) ->
            Pr.add_range ctx v ~lo:P.zero ~hi:(P.sub cnt P.one) ())
          ctx nest
      in
      let env_body = check_block acc env_nest ctx_i body in
      check_map_races acc env env_body ctx ~who ~nest ~body s.pat
  | ELoop { params; var; bound; body } ->
      check_loop acc env ctx s ~params ~var ~bound ~body
  | EIf { cond = _; tb; fb } -> check_if acc env ctx s ~tb ~fb
  | _ -> ());
  (* bind and check the pattern, left to right: witness binders come
     before the array annotations that mention them *)
  let env =
    List.fold_left
      (fun env pe ->
        let env = bind_pat env s pe in
        if is_array_typ pe.pt then check_annot acc env ctx pe;
        env)
      env s.pat
  in
  match scalar_def s with
  | Some (v, p) -> { env with scalars = P.SM.add v p env.scalars }
  | None -> env

and check_if acc env ctx (s : stm) ~tb ~fb =
  let who = match s.pat with pe :: _ -> pe.pv | [] -> "<if>" in
  let env_t = check_block acc env ctx tb in
  let env_f = check_block acc env ctx fb in
  if
    List.length tb.res <> List.length s.pat
    || List.length fb.res <> List.length s.pat
  then
    report acc Error "existential" who
      "branch results do not match the binding pattern's arity"
  else
    List.iter
      (fun g ->
        match g.arr_pe.pmem with
        | None -> ()
        | Some outer_mem ->
            check_group_results acc env_t ~who:g.arr_pe.pv ~what:"true branch"
              g ~outer_mem tb.res;
            check_group_results acc env_f ~who:g.arr_pe.pv
              ~what:"false branch" g ~outer_mem fb.res)
      (pattern_groups acc ~who s.pat)

and check_loop acc env ctx (s : stm) ~params ~var ~bound ~body =
  let who = match s.pat with pe :: _ -> pe.pv | [] -> "<loop>" in
  let param_pat = List.map fst params in
  let pgroups = pattern_groups acc ~who param_pat in
  (* initializer side: each array parameter group must be instantiated
     by its initializer *)
  List.iter
    (fun g ->
      match g.arr_pe.pmem with
      | None -> ()
      | Some pmem ->
          let inits = List.map snd params in
          check_group_results acc env ~who:g.arr_pe.pv ~what:"initializer" g
            ~outer_mem:pmem inits)
    pgroups;
  (* body environment: iteration variable, then the parameters (the
     memory parameters are existential blocks of unknown size) *)
  let bind_param e (pe : pat_elem) =
    let sizes =
      if pe.pt = TMem then SM.add pe.pv None e.sizes else e.sizes
    in
    let mems =
      match pe.pmem with
      | Some m when is_array_typ pe.pt -> SM.add pe.pv m e.mems
      | _ -> e.mems
    in
    { e with sizes; mems; types = SM.add pe.pv pe.pt e.types }
  in
  let env_body0 =
    List.fold_left
      (fun e (pe, _) -> bind_param e pe)
      { env with types = SM.add var (TScalar I64) env.types }
      params
  in
  List.iter
    (fun (pe, _) -> if is_array_typ pe.pt then check_annot acc env_body0 ctx pe)
    params;
  let ctx' = Pr.add_range ctx var ~lo:P.zero ~hi:(P.sub bound P.one) () in
  let env_after = check_block acc env_body0 ctx' body in
  if List.length body.res <> List.length params then
    report acc Error "existential" who
      "loop body results do not match the parameter arity"
  else begin
    (* body side of the parameter groups *)
    List.iter
      (fun g ->
        match g.arr_pe.pmem with
        | None -> ()
        | Some pmem ->
            check_group_results acc env_after ~who:g.arr_pe.pv
              ~what:"loop body" g ~outer_mem:pmem body.res)
      pgroups;
    (* the outer binding pattern mirrors the grouping; its array
       annotations are instantiated by the body results too *)
    if List.length body.res = List.length s.pat then
      List.iter
        (fun g ->
          match g.arr_pe.pmem with
          | None -> ()
          | Some outer_mem ->
              check_group_results acc env_after ~who:g.arr_pe.pv
                ~what:"loop result" g ~outer_mem body.res)
        (pattern_groups acc ~who s.pat)
    else
      report acc Error "existential" who
        "loop body results do not match the binding pattern's arity"
  end

(* ---------------------------------------------------------------- *)
(* Entry point                                                        *)
(* ---------------------------------------------------------------- *)

let has_annotations (p : prog) =
  List.exists (fun pe -> pe.pmem <> None) p.params
  || List.exists
       (fun s -> List.exists (fun pe -> pe.pmem <> None) s.pat)
       (all_stms_block p.body)

let check ?(stage = "") (p0 : prog) : report =
  let p = Ir.Clone.clone_prog p0 in
  let aliases = Lastuse.annotate p in
  let acc =
    {
      n_stms = 0;
      n_annots = 0;
      n_bounds_proved = 0;
      n_bounds_undec = 0;
      n_races_proved = 0;
      n_races_undec = 0;
      n_reuse_proved = 0;
      n_reuse_undec = 0;
      n_reuse_holes = 0;
      viols = [];
      aliases;
    }
  in
  let env0 =
    List.fold_left
      (fun env pe ->
        let env = { env with types = SM.add pe.pv pe.pt env.types } in
        match (pe.pt, pe.pmem) with
        | TArr (_, shape), Some m ->
            {
              env with
              sizes = SM.add m.block (Some (P.prod shape)) env.sizes;
              types = SM.add m.block TMem env.types;
              mems = SM.add pe.pv m env.mems;
            }
        | TMem, _ -> { env with sizes = SM.add pe.pv None env.sizes }
        | _ -> env)
      {
        sizes = SM.empty;
        types = SM.empty;
        mems = SM.empty;
        scalars = P.SM.empty;
      }
      p.params
  in
  if has_annotations p then ignore (check_block acc env0 p.ctx p.body)
  else acc.n_stms <- List.length (all_stms_block p.body);
  {
    program = p.name;
    stage;
    stms = acc.n_stms;
    annotations = acc.n_annots;
    bounds_proved = acc.n_bounds_proved;
    bounds_undecided = acc.n_bounds_undec;
    races_proved = acc.n_races_proved;
    races_undecided = acc.n_races_undec;
    reuse_proved = acc.n_reuse_proved;
    reuse_undecided = acc.n_reuse_undec;
    reuse_holes = acc.n_reuse_holes;
    violations = List.rev acc.viols;
  }
