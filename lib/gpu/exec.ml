(* The memory-aware executor: runs a memory-annotated program against
   the GPU cost model.

   Unlike the reference interpreter (which materializes every view and
   ignores annotations), this executor honours memory blocks and index
   functions exactly: arrays are (block, concrete index function) pairs,
   change-of-layout operations cost nothing, and the copies at updates,
   concats, [copy], and mapnest result writes are *elided* whenever the
   source already lives at the destination location - which is
   precisely what the short-circuiting pass arranges.  The executor is
   therefore both the validation vehicle (full mode: computed values
   must match the reference interpreter) and the measurement vehicle
   (cost-only mode at paper-scale sizes: counted traffic feeds the
   device time model).

   Cost-only mode executes control flow and scalar sizes exactly but
   samples each mapnest body once (at the midpoint of its index space)
   and scales the measured per-thread cost by the thread count; byte
   counts for copies and slices are exact since they derive from
   shapes.  This is accurate for thread-uniform bodies and for bodies
   whose cost is linear in the thread index (wavefront/triangular
   workloads), which covers the benchmark suite.

   A run first resolves the program: every binder occurrence gets an
   integer slot, every name use becomes the slot of the binder in
   scope there, and index polynomials, the per-block result-liveness
   bookkeeping and the names each kernel's declared footprints look up
   are all fixed once per program.  Execution then reads and writes
   one mutable frame ([aval array]) instead of a name-keyed
   environment.  Block ids are numbered per run from 1, so a trace
   does not depend on how many runs the process made before it. *)

open Ir.Ast
module P = Symalg.Poly
module Ixfn = Lmads.Ixfn
module Lmad = Lmads.Lmad
module Trace = Core.Trace
module SM = Map.Make (String)
module Value = Ir.Value

exception Exec_error of string

let err fmt = Fmt.kstr (fun s -> raise (Exec_error s)) fmt

type mode = Full | Cost_only

(* Fault injection for testing the dynamic checker: [Off_by_one_write]
   shifts every in-kernel cell write by one element.  The static
   annotations are untouched, so memlint still passes - only the
   {!Core.Memtrace} cross-check of a traced run can observe the bug. *)
type mutation = Off_by_one_write

(* ---------------------------------------------------------------- *)
(* Concrete memory                                                   *)
(* ---------------------------------------------------------------- *)

type payload = PF of float array | PI of int array | PB of bool array

type blockv = {
  bid : int; (* unique within the run *)
  bname : string option;
      (* the parameter's annotated block name; None for allocations,
         which are named [blk<bid>] only when a name is needed *)
  bsize : int; (* elements *)
  mutable payload : payload option; (* lazily materialized (Full mode) *)
  mutable devbytes : float;
      (* device bytes the pool served for this block; 0 when the block
         is not pool-owned (inputs, scratch, pool disabled) *)
  mutable freed : bool; (* currently sitting on a pool free list *)
}

let block_name b =
  match b.bname with Some n -> n | None -> Printf.sprintf "blk%d" b.bid

(* Concrete index function: integer offsets/cardinals/strides.  The
   constituent LMADs are {!Lmads.Lmad.concrete}, shared with the trace
   events so footprints flow into {!Core.Trace} without conversion. *)
type clmad = Lmad.concrete = {
  coff : int;
  cdims : (int * int) list; (* card, stride *)
}

type cixfn = clmad list (* head first, memory side last *)

type arrv = { elt : sct; shape : int list; block : blockv; ix : cixfn }

type aval =
  | AInt of int
  | AFloat of float
  | ABool of bool
  | AMem of blockv
  | AArr of arrv

(* ---------------------------------------------------------------- *)
(* Slot-resolved programs                                            *)
(* ---------------------------------------------------------------- *)

(* Every binder occurrence (parameter, the block of an array parameter,
   pattern element, loop parameter and counter, mapnest index) owns one
   slot of the run's frame, and every name use is resolved to the slot
   of the binder lexically in scope at that point.  A slot per
   occurrence, not per name, keeps shadowing right: a loop body or an
   [if] arm rebinding an outer name writes its own slot, so the outer
   binding is intact when the nested block returns.  No construct
   re-enters a block that is still running (threads and iterations run
   one after another, and there is no recursion), so one frame per run
   suffices.  A name with no binder in scope resolves to a negative
   slot and raises [Exec_error] only if it is executed. *)
type vref = { slot : int; name : string }

type ratom = RVar of vref | RConst of aval

(* An index polynomial over slots: (coefficient, power product) terms,
   summed as {!Symalg.Poly.eval} sums them. *)
type rpoly = Konst of int | Terms of (int * (vref * int) list) list

type rlmad = { roff : rpoly; rdims : (rpoly * rpoly) list }

type rmem = { rblock : vref; rix : rlmad list (* head first *) }

type rpat = {
  rv : string;
  rslot : int;
  rtyp : typ;
  rshape : rpoly list; (* the array shape; [] for scalars *)
  rmem : rmem option;
}

type rslice_dim = RFix of rpoly | RRange of rpoly * rpoly * rpoly
type rslice = RTriplet of rslice_dim list | RLmad of rlmad
type rsrc = RSrcArr of vref | RSrcScalar of ratom

type rexp =
  | XAtom of ratom
  | XBin of binop * ratom * ratom
  | XCmp of cmpop * ratom * ratom
  | XUn of unop * ratom
  | XIdx of rpoly
  | XIndex of vref * rpoly list
  | XView of vref (* slice, transpose, reshape, reverse *)
  | XIota of rpoly
  | XReplicate of ratom
  | XScratch
  | XCopy of vref
  | XConcat of vref list
  | XUpdate of { dst : vref; slc : rslice; src : rsrc }
  | XMap of {
      nest : (int * rpoly) list;
      body : rblock;
      dests : (string * int) list;
          (* launch-scope slots of the blocks annotated inside the body *)
      reads : (string * int) list;
          (* launch-scope slots of the names the body mentions *)
    }
  | XReduce of { op : binop; ne : ratom; arr : vref }
  | XArgmin of vref
  | XLoop of {
      params : (string * int * ratom) list; (* name, slot, initial value *)
      var : int;
      bound : rpoly;
      body : rblock;
      scalar_carry : bool;
    }
  | XIf of { cond : ratom; tb : rblock; fb : rblock }
  | XAlloc of rpoly

and rstm = {
  rpat : rpat list;
  rexp : rexp;
  label : string option; (* the first bound name: the kernel label *)
  arena : bool; (* a packed arena's allocation *)
  lus : (string * vref) list; (* last uses, resolved after the binding *)
  res_refs : (vref * vref option) list;
      (* per result variable of the enclosing block: its binding in
         scope after this statement, and the block it is annotated with
         when a later statement binds it (empty when [lus] is) *)
}

and rblock = { rstms : rstm list; rres : ratom list }

(* [rs] counts the slots handed out so far. *)
let fresh_slot rs =
  let s = !rs in
  incr rs;
  s

let resolve scope v =
  { slot = Option.value (SM.find_opt v scope) ~default:(-1); name = v }

let r_atom scope = function
  | Var v -> RVar (resolve scope v)
  | Int i -> RConst (AInt i)
  | Float f -> RConst (AFloat f)
  | Bool b -> RConst (ABool b)

let r_poly scope (p : P.t) =
  match P.to_const_opt p with
  | Some c -> Konst c
  | None ->
      Terms
        (List.map
           (fun (m : P.mono) ->
             (m.coeff, List.map (fun (x, e) -> (resolve scope x, e)) m.pows))
           (P.monos p))

let r_lmad scope l =
  {
    roff = r_poly scope (Lmad.offset l);
    rdims =
      List.map
        (fun d -> (r_poly scope d.Lmad.n, r_poly scope d.Lmad.s))
        (Lmad.dims l);
  }

(* A pattern element's annotations are resolved in the scope before its
   statement binds anything. *)
let r_pat rs scope pe =
  {
    rv = pe.pv;
    rslot = fresh_slot rs;
    rtyp = pe.pt;
    rshape = List.map (r_poly scope) (typ_shape pe.pt);
    rmem =
      Option.map
        (fun (m : mem_info) ->
          {
            rblock = resolve scope m.block;
            rix = List.map (r_lmad scope) (Ixfn.chain m.ixfn);
          })
        pe.pmem;
  }

let r_slice scope = function
  | STriplet sds ->
      RTriplet
        (List.map
           (function
             | SFix i -> RFix (r_poly scope i)
             | SRange { start; len; step } ->
                 RRange
                   (r_poly scope start, r_poly scope len, r_poly scope step))
           sds)
  | SLmad l -> RLmad (r_lmad scope l)

(* Every variable name occurring in a block (conservative: includes
   locally bound names, which resolve against the launch scope like
   any other). *)
let rec names_in_block (blk : block) acc =
  let acc = List.fold_left (fun acc s -> names_in_stm s acc) acc blk.stms in
  List.fold_left (fun acc a -> name_of_atom a acc) acc blk.res

and name_of_atom a acc = match a with Var v -> v :: acc | _ -> acc

and names_in_stm (s : stm) acc =
  match s.exp with
  | EAtom a | EUn (_, a) -> name_of_atom a acc
  | EBin (_, a, b) | ECmp (_, a, b) -> name_of_atom a (name_of_atom b acc)
  | EIdx _ | EIota _ | EScratch _ | EAlloc _ -> acc
  | EIndex (v, _)
  | ESlice (v, _)
  | ETranspose (v, _)
  | EReshape (v, _)
  | EReverse (v, _)
  | ECopy v
  | EArgmin v ->
      v :: acc
  | EConcat vs -> vs @ acc
  | EReplicate (_, a) -> name_of_atom a acc
  | EUpdate { dst; src; _ } -> (
      let acc = dst :: acc in
      match src with
      | SrcScalar a -> name_of_atom a acc
      | SrcArr v -> v :: acc)
  | EMap { body; _ } -> names_in_block body acc
  | EReduce { ne; arr; _ } -> name_of_atom ne (arr :: acc)
  | ELoop { params; body; _ } ->
      let acc =
        List.fold_left (fun acc (_, init) -> name_of_atom init acc) acc params
      in
      names_in_block body acc
  | EIf { cond; tb; fb } ->
      name_of_atom cond (names_in_block tb (names_in_block fb acc))

(* Memory destinations annotated anywhere inside a kernel body, by the
   launch-scope slot of their block name.  Those whose block already
   exists at launch (hoisted scratch) are declared written - and
   therefore also read - by the kernel. *)
let rec body_dests scope (blk : block) acc =
  List.fold_left
    (fun acc s ->
      let acc =
        List.fold_left
          (fun acc pe ->
            match pe.pmem with
            | Some m -> (
                match SM.find_opt m.block scope with
                | Some slot -> (pe.pv, slot) :: acc
                | None -> acc)
            | None -> acc)
          acc s.pat
      in
      match s.exp with
      | EMap { body; _ } | ELoop { body; _ } -> body_dests scope body acc
      | EIf { tb; fb; _ } -> body_dests scope tb (body_dests scope fb acc)
      | _ -> acc)
    acc blk.stms

let rec r_exp rs scope (s : stm) : rexp =
  match s.exp with
  | EAtom a -> XAtom (r_atom scope a)
  | EBin (op, a, b) -> XBin (op, r_atom scope a, r_atom scope b)
  | ECmp (op, a, b) -> XCmp (op, r_atom scope a, r_atom scope b)
  | EUn (op, a) -> XUn (op, r_atom scope a)
  | EIdx p -> XIdx (r_poly scope p)
  | EIndex (v, idxs) -> XIndex (resolve scope v, List.map (r_poly scope) idxs)
  | ESlice (v, _) | ETranspose (v, _) | EReshape (v, _) | EReverse (v, _) ->
      XView (resolve scope v)
  | EIota n -> XIota (r_poly scope n)
  | EReplicate (_, a) -> XReplicate (r_atom scope a)
  | EScratch _ -> XScratch
  | ECopy v -> XCopy (resolve scope v)
  | EConcat vs -> XConcat (List.map (resolve scope) vs)
  | EUpdate { dst; slc; src } ->
      XUpdate
        {
          dst = resolve scope dst;
          slc = r_slice scope slc;
          src =
            (match src with
            | SrcArr v -> RSrcArr (resolve scope v)
            | SrcScalar a -> RSrcScalar (r_atom scope a));
        }
  | EMap { nest; body } ->
      let inner, nest =
        List.fold_left_map
          (fun sc (v, n) ->
            let slot = fresh_slot rs in
            (SM.add v slot sc, (slot, r_poly scope n)))
          scope nest
      in
      let in_scope v =
        Option.map (fun slot -> (v, slot)) (SM.find_opt v scope)
      in
      XMap
        {
          nest;
          body = r_block rs inner body;
          dests = body_dests scope body [];
          reads =
            List.filter_map in_scope
              (List.sort_uniq compare (names_in_block body []));
        }
  | EReduce { op; ne; arr } ->
      XReduce { op; ne = r_atom scope ne; arr = resolve scope arr }
  | EArgmin v -> XArgmin (resolve scope v)
  | ELoop { params; var; bound; body } ->
      let inner, rparams =
        List.fold_left_map
          (fun sc (pe, init) ->
            let slot = fresh_slot rs in
            (SM.add pe.pv slot sc, (pe.pv, slot, r_atom scope init)))
          scope params
      in
      let vslot = fresh_slot rs in
      XLoop
        {
          params = rparams;
          var = vslot;
          bound = r_poly scope bound;
          body = r_block rs (SM.add var vslot inner) body;
          scalar_carry =
            List.exists (fun (pe, _) -> pe.pt = TScalar I64) params;
        }
  | EIf { cond; tb; fb } ->
      XIf
        {
          cond = r_atom scope cond;
          tb = r_block rs scope tb;
          fb = r_block rs scope fb;
        }
  | EAlloc size -> XAlloc (r_poly scope size)

and r_block rs scope (b : block) : rblock =
  let res_vars =
    List.filter_map (function Var v -> Some v | _ -> None) b.res
  in
  (* Annotated block names of result variables bound by this block's
     own statements.  A result variable bound by a LATER statement is
     not yet bound while earlier statements execute, so its block id
     must be resolved through the annotation name (the [EAlloc]
     precedes any use of the block) - otherwise a last-use marker for
     a co-resident variable would date the block's death before a
     later in-block write (the rotated-loop pattern). *)
  let res_blocks =
    List.fold_left
      (fun m (s : stm) ->
        List.fold_left
          (fun m (pe : pat_elem) ->
            match pe.pmem with
            | Some mi when List.mem pe.pv res_vars -> SM.add pe.pv mi.block m
            | _ -> m)
          m s.pat)
      SM.empty b.stms
  in
  let scope, rstms =
    List.fold_left_map
      (fun scope (s : stm) ->
        let rexp = r_exp rs scope s in
        let rpat = List.map (r_pat rs scope) s.pat in
        let scope =
          List.fold_left (fun sc rp -> SM.add rp.rv rp.rslot sc) scope rpat
        in
        let lus = List.map (fun v -> (v, resolve scope v)) s.last_uses in
        let res_refs =
          if lus = [] then []
          else
            List.map
              (fun v ->
                ( resolve scope v,
                  Option.map (resolve scope) (SM.find_opt v res_blocks) ))
              res_vars
        in
        ( scope,
          {
            rpat;
            rexp;
            label = (match s.pat with pe :: _ -> Some pe.pv | [] -> None);
            arena =
              (match s.pat with
              | [ pe ] -> Core.Pack.is_arena pe.pv
              | _ -> false);
            lus;
            res_refs;
          } ))
      scope b.stms
  in
  { rstms; rres = List.map (r_atom scope) b.res }

(* ---------------------------------------------------------------- *)
(* Per-thread written cells                                          *)
(* ---------------------------------------------------------------- *)

(* The (block id, offset) cells the current kernel thread wrote, in an
   open-addressing table.  A slot is a member only while its stamp is
   the current generation, so [clear] - once per thread - is O(1) and
   slots stamped by earlier threads count as free. *)
module Cells = struct
  type t = {
    mutable bids : int array;
    mutable offs : int array;
    mutable stamps : int array;
    mutable gen : int;
    mutable size : int; (* members of the current generation *)
  }

  let create () =
    {
      bids = Array.make 64 0;
      offs = Array.make 64 0;
      stamps = Array.make 64 0;
      gen = 1;
      size = 0;
    }

  let clear t =
    t.gen <- t.gen + 1;
    t.size <- 0

  (* The slot holding (bid, off), or the free slot where it belongs;
     the load stays at most 1/2, so a free slot is always found. *)
  let find t bid off =
    let mask = Array.length t.stamps - 1 in
    let rec probe i =
      if t.stamps.(i) <> t.gen || (t.bids.(i) = bid && t.offs.(i) = off)
      then i
      else probe ((i + 1) land mask)
    in
    probe (((bid * 0x2f0b3c1d) lxor (off * 0x1e3779b9)) land mask)

  let mem t bid off = t.stamps.(find t bid off) = t.gen

  let rec add t bid off =
    let i = find t bid off in
    if t.stamps.(i) <> t.gen then
      if 2 * (t.size + 1) > Array.length t.stamps then begin
        grow t;
        add t bid off
      end
      else begin
        t.stamps.(i) <- t.gen;
        t.bids.(i) <- bid;
        t.offs.(i) <- off;
        t.size <- t.size + 1
      end

  and grow t =
    let bids = t.bids and offs = t.offs and stamps = t.stamps in
    let n = 2 * Array.length stamps in
    t.bids <- Array.make n 0;
    t.offs <- Array.make n 0;
    t.stamps <- Array.make n 0;
    t.size <- 0;
    Array.iteri (fun i s -> if s = t.gen then add t bids.(i) offs.(i)) stamps
end

(* ---------------------------------------------------------------- *)
(* Run state                                                         *)
(* ---------------------------------------------------------------- *)

(* A block's DRAM read estimate within the current kernel. *)
type tally = { mutable bytes : float; tsize : int (* block elements *) }

type state = {
  mode : mode;
  counters : Device.counters;
  mutable pool : Device.Pool.t option;
      (* pooled allocator serving top-level [EAlloc]s; None = every
         allocation is a fresh device allocation (the --no-pool model).
         Mutable: a contained device fault degrades the run to
         unpooled execution by flushing and dropping the pool. *)
  fail_safe : bool;
      (* contain device faults (OOM, strict-cap refusal) by degrading
         to unpooled execution instead of raising *)
  strict_cap : bool;
      (* refuse live memory past the pool cap (default cap semantics
         only bound cache growth) *)
  oom_at : int;
      (* fault injection: refuse allocation number [oom_at] (1-based
         over top-level and scratch allocations); 0 = never *)
  mutable alloc_seq : int; (* allocations seen so far, for [oom_at] *)
  mutable next_bid : int; (* block ids handed out so far in this run *)
  mutable exec_faults : Core.Fault.t list; (* contained, newest first *)
  mutable unfreed : int;
      (* device-owned blocks allocated but not yet freed: the
         teardown's synchronizing-free top-up counts exactly these,
         staying consistent even when the pool degraded mid-run *)
  mutable tracer : Trace.t option;
      (* when set, every memory-relevant action appends a trace event *)
  mutation : mutation option; (* fault injection (tests only) *)
  mutable kernel_depth : int;
  mutable kernel_scratch : float;
      (* bytes of per-thread scratch allocated by the kernel currently
         in flight (CUDA local-memory model): raises the peak while the
         kernel runs, released when it retires *)
  thread_writes : Cells.t;
      (* cells written by the current kernel thread: re-reads of a
         thread's own writes hit registers/shared memory and cost no
         global traffic (temporal locality within a thread, e.g. the
         in-block cells of NW/LUD) *)
  kernel_reads_tally : (int, tally) Hashtbl.t;
      (* per-kernel DRAM read estimate per block id.  At kernel end
         each block's reads are capped at its footprint - a perfect-L2
         model: within one kernel launch a location is fetched from
         DRAM at most once (spatial/temporal sharing between threads,
         e.g. stencil neighbours).  The summation order of the capped
         reads is the table's iteration order, so entries are updated
         in place and only ever re-inserted wholesale. *)
  mutable tally_bid : int; (* the block [tally_cell] belongs to; 0 = none *)
  mutable tally_cell : tally; (* the last block's entry: reads come in runs *)
}

let elem_bytes = 8.0

(* ---------------------------------------------------------------- *)
(* Pool plumbing                                                     *)
(* ---------------------------------------------------------------- *)

(* A block goes back on the pool's free list when its contents die (the
   same last-use markers the tracer emits); double frees from blocks
   shared by several variables are guarded by the [freed] flag.  The
   converse direction mirrors Memtrace's revive-on-write rule: writing
   into a freed block (the coalesced-block pattern, where a later
   occupant rebinds into an earlier occupant's block) reclaims its
   capacity from the pool.

   Without a pool the same death marker is a synchronizing device free
   ([cudaFree] stalls until the device drains), so it is counted for
   the cost model instead of pushed onto a free list. *)
let pool_free st (b : blockv) =
  if b.devbytes > 0. && not b.freed then begin
    b.freed <- true;
    st.unfreed <- st.unfreed - 1;
    match st.pool with
    | Some p -> Device.Pool.free p b.devbytes
    | None -> st.counters.frees <- st.counters.frees + 1
  end

let pool_revive st (b : blockv) =
  if b.freed then begin
    b.freed <- false;
    st.unfreed <- st.unfreed + 1;
    match st.pool with
    | Some p -> Device.Pool.revive p b.devbytes
    | None -> ()
  end

(* Contain (fail-safe) or raise a device-layer fault.  Containment is
   the executor's rung of the degradation ladder: the pool's cached
   blocks are all released - priced as synchronizing device frees, the
   penalty of degrading - and the run continues unpooled, every
   further allocation a fresh device allocation. *)
let device_fault st (f : Core.Fault.t) =
  if not st.fail_safe then raise (Core.Fault.Fault f)
  else begin
    st.exec_faults <- f :: st.exec_faults;
    (match st.pool with
    | Some p ->
        let released = Device.Pool.flush p in
        st.counters.frees <- st.counters.frees + released
    | None -> ());
    st.pool <- None
  end

(* ---------------------------------------------------------------- *)
(* Frame and polynomial evaluation                                   *)
(* ---------------------------------------------------------------- *)

type frame = aval array

let lookup (env : frame) r =
  if r.slot < 0 then err "exec: unbound %s" r.name else env.(r.slot)

let lookup_arr env r =
  match lookup env r with
  | AArr a -> a
  | _ -> err "exec: %s is not an array" r.name

let lookup_block env r =
  match lookup env r with
  | AMem b -> b
  | _ -> err "exec: %s is not a memory block" r.name

let eval_poly env = function
  | Konst c -> c
  | Terms ms ->
      List.fold_left
        (fun acc (c, pows) ->
          acc
          + List.fold_left
              (fun acc (r, e) ->
                let x =
                  match lookup env r with
                  | AInt i -> i
                  | _ ->
                      err "exec: %s is not an integer (in index expression)"
                        r.name
                in
                let rec pw acc e =
                  if e = 0 then acc else pw (acc * x) (e - 1)
                in
                pw acc e)
              c pows)
        0 ms

let concretize_lmad env l =
  {
    coff = eval_poly env l.roff;
    cdims = List.map (fun (n, s) -> (eval_poly env n, eval_poly env s)) l.rdims;
  }

let concretize env (ix : rlmad list) : cixfn = List.map (concretize_lmad env) ix

(* Apply a concrete index function to a concrete index. *)
let capply (ix : cixfn) (idxs : int list) : int =
  match ix with
  | [] -> err "exec: empty index function"
  | first :: rest ->
      let app l idxs =
        List.fold_left2
          (fun acc i (_, s) -> acc + (i * s))
          l.coff idxs l.cdims
      in
      let o = ref (app first idxs) in
      List.iter
        (fun l ->
          let shp = List.map fst l.cdims in
          let rec unrank o = function
            | [] -> []
            | [ _ ] -> [ o ]
            | _ :: rest ->
                let inner = List.fold_left ( * ) 1 rest in
                (o / inner) :: unrank (o mod inner) rest
          in
          o := app l (unrank !o shp))
        rest;
      !o

(* ---------------------------------------------------------------- *)
(* Declared footprints (tracing)                                     *)
(* ---------------------------------------------------------------- *)

(* The declared region of an annotation at launch time: its
   memory-side LMAD concretized in the frame.  Annotations mentioning
   variables with no launch-time value (per-thread indices, inner loop
   counters) have no single enumerable region and degrade to None -
   "anywhere in the block", which is still bounded by the block size. *)
let try_region env (m : rmem) : clmad list option =
  match List.rev m.rix with
  | [] -> None
  | mem :: _ -> (
      try Some [ concretize_lmad env mem ] with Exec_error _ -> None)

(* An already-concrete array view's memory-side region. *)
let region_of_cixfn (ix : cixfn) : clmad list option =
  match List.rev ix with [] -> None | mem :: _ -> Some [ mem ]

(* Declared write footprints of a kernel statement: the memory
   annotations of its array-typed bindings. *)
let pat_footprints env (s : rstm) : Trace.footprint list =
  List.filter_map
    (fun rp ->
      match (rp.rtyp, rp.rmem) with
      | TArr _, Some m -> (
          match lookup env m.rblock with
          | AMem b ->
              Some
                { Trace.fvar = rp.rv; fbid = b.bid; fregion = try_region env m }
          | _ -> None)
      | _ -> None)
    s.rpat

(* Blocks annotated inside a kernel body that already exist at launch. *)
let dest_footprints env dests : Trace.footprint list =
  List.filter_map
    (fun (v, slot) ->
      match env.(slot) with
      | AMem b -> Some { Trace.fvar = v; fbid = b.bid; fregion = None }
      | _ -> None)
    dests

(* Declared read footprints of a kernel body: the full (concrete) view
   of every outer array the body mentions by name. *)
let read_footprints env reads : Trace.footprint list =
  List.filter_map
    (fun (v, slot) ->
      match env.(slot) with
      | AArr a ->
          Some
            {
              Trace.fvar = v;
              fbid = a.block.bid;
              fregion = region_of_cixfn a.ix;
            }
      | _ -> None)
    reads

let arr_footprint v (a : arrv) : Trace.footprint =
  { Trace.fvar = v; fbid = a.block.bid; fregion = region_of_cixfn a.ix }

(* Element-wise location equality (same block, same mapping): used to
   elide copies arranged by short-circuiting.  Cardinal-1 dimensions do
   not affect the mapping and are dropped before comparison. *)
let strip (ix : cixfn) =
  List.map
    (fun l -> { l with cdims = List.filter (fun (n, _) -> n <> 1) l.cdims })
    ix

let same_location (b1 : blockv) ix1 (b2 : blockv) ix2 =
  b1 == b2 && strip ix1 = strip ix2

(* ---------------------------------------------------------------- *)
(* Payload access                                                    *)
(* ---------------------------------------------------------------- *)

let ensure_payload (b : blockv) (elt : sct) : payload =
  match b.payload with
  | Some p -> p
  | None ->
      let p =
        match elt with
        | F64 -> PF (Array.make b.bsize 0.0)
        | I64 -> PI (Array.make b.bsize 0)
        | Bool -> PB (Array.make b.bsize false)
      in
      b.payload <- Some p;
      p

let tally_reset st =
  Hashtbl.reset st.kernel_reads_tally;
  st.tally_bid <- 0

let tally_reads st (a : blockv) bytes =
  if a.bid <> st.tally_bid then begin
    let t =
      match Hashtbl.find_opt st.kernel_reads_tally a.bid with
      | Some t -> t
      | None ->
          let t = { bytes = 0.; tsize = a.bsize } in
          Hashtbl.replace st.kernel_reads_tally a.bid t;
          t
    in
    st.tally_bid <- a.bid;
    st.tally_cell <- t
  end;
  st.tally_cell.bytes <- st.tally_cell.bytes +. bytes

let read_cell st (a : blockv) elt (off : int) : aval =
  (if st.kernel_depth = 0 then
     st.counters.kernel_reads <- st.counters.kernel_reads +. elem_bytes
   else if not (Cells.mem st.thread_writes a.bid off) then
     tally_reads st a elem_bytes);
  (match st.tracer with
  | Some tr when st.kernel_depth > 0 && st.mode = Full ->
      Trace.kernel_read tr ~bid:a.bid ~off
  | _ -> ());
  match st.mode with
  | Cost_only -> (
      match elt with F64 -> AFloat 0.5 | I64 -> AInt 0 | Bool -> ABool true)
  | Full -> (
      if off < 0 || off >= a.bsize then
        err "exec: read out of bounds in %s (%d / %d)" (block_name a) off
          a.bsize;
      match ensure_payload a elt with
      | PF d -> AFloat d.(off)
      | PI d -> AInt d.(off)
      | PB d -> ABool d.(off))

let write_cell st (a : blockv) elt (off : int) (v : aval) : unit =
  if a.freed then pool_revive st a;
  let off =
    match st.mutation with
    | Some Off_by_one_write when st.kernel_depth > 0 -> off + 1
    | _ -> off
  in
  st.counters.kernel_writes <- st.counters.kernel_writes +. elem_bytes;
  if st.kernel_depth > 0 then Cells.add st.thread_writes a.bid off;
  (match st.tracer with
  | Some tr when st.kernel_depth > 0 && st.mode = Full ->
      Trace.kernel_write tr ~bid:a.bid ~off
  | _ -> ());
  match st.mode with
  | Cost_only -> ()
  | Full -> (
      if off < 0 || off >= a.bsize then
        err "exec: write out of bounds in %s (%d / %d)" (block_name a) off
          a.bsize;
      match (ensure_payload a elt, v) with
      | PF d, AFloat x -> d.(off) <- x
      | PI d, AInt x -> d.(off) <- x
      | PB d, ABool x -> d.(off) <- x
      | _ -> err "exec: type mismatch writing %s" (block_name a))

(* Raw data movement that bypasses the kernel counters (used by copy
   accounting, which maintains its own counters). *)
let move_cell (src : blockv) (dst : blockv) elt (soff : int) (doff : int) :
    unit =
  match (ensure_payload src elt, ensure_payload dst elt) with
  | PF s, PF d -> d.(doff) <- s.(soff)
  | PI s, PI d -> d.(doff) <- s.(soff)
  | PB s, PB d -> d.(doff) <- s.(soff)
  | _ -> err "exec: copy type mismatch"

(* Call [f] on every logical index of a concrete shape, in the
   row-major order of {!Ir.Value.indices}, without building the list. *)
let iter_indices shape f =
  let rec go rev_prefix = function
    | [] -> f (List.rev rev_prefix)
    | n :: rest ->
        for i = 0 to n - 1 do
          go (i :: rev_prefix) rest
        done
  in
  go [] shape

let count shape = List.fold_left ( * ) 1 shape

(* ---------------------------------------------------------------- *)
(* Copies                                                            *)
(* ---------------------------------------------------------------- *)

(* Copy the logical contents of (sb, six, shape) to (db, dix); elided
   when the locations already coincide. *)
let copy_logical st elt shape (sb : blockv) (six : cixfn) (db : blockv)
    (dix : cixfn) : unit =
  if db.freed then pool_revive st db;
  let bytes = float_of_int (count shape) *. elem_bytes in
  let elided = same_location sb six db dix in
  (match st.tracer with
  | Some tr ->
      Trace.copy tr ~src:sb.bid ~dst:db.bid ~shape ~six ~dix ~bytes ~elided
        ~in_kernel:(st.kernel_depth > 0)
  | None -> ());
  if elided then begin
    st.counters.copies_elided <- st.counters.copies_elided + 1;
    st.counters.elided_bytes <- st.counters.elided_bytes +. bytes
  end
  else begin
    (* A copy inside a kernel (a per-thread result write) is kernel
       traffic; a top-level copy goes through the copy engine and pays
       per-copy overhead. *)
    if st.kernel_depth > 0 then begin
      tally_reads st sb bytes;
      st.counters.kernel_writes <- st.counters.kernel_writes +. bytes
    end
    else begin
      st.counters.copies <- st.counters.copies + 1;
      st.counters.copy_bytes <- st.counters.copy_bytes +. bytes
    end;
    match st.mode with
    | Cost_only -> ()
    | Full ->
        iter_indices shape (fun idx ->
            let so = capply six idx and dof = capply dix idx in
            (match st.tracer with
            | Some tr when st.kernel_depth > 0 ->
                Trace.kernel_read tr ~bid:sb.bid ~off:so;
                Trace.kernel_write tr ~bid:db.bid ~off:dof
            | _ -> ());
            move_cell sb db elt so dof)
  end

(* ---------------------------------------------------------------- *)
(* Concrete slicing of index functions                               *)
(* ---------------------------------------------------------------- *)

(* Triplet-slice the head of a concrete index function.  [dim] maps one
   slice dimension and the head's stride there to the offset it adds
   and, for a range, the (cardinal, stride) it keeps. *)
let cslice_triplet dim sds (ix : cixfn) : cixfn =
  match ix with
  | [] -> err "exec: slicing empty ixfn"
  | l :: rest ->
      if List.length sds <> List.length l.cdims then
        err "exec: triplet slice rank mismatch";
      let off = ref l.coff in
      let dims =
        List.concat
          (List.map2
             (fun sd (_, s) ->
               let o, kept = dim sd s in
               off := !off + o;
               kept)
             sds l.cdims)
      in
      { coff = !off; cdims = dims } :: rest

let rslice_dim env sd s =
  match sd with
  | RFix i -> (eval_poly env i * s, [])
  | RRange (start, len, step) ->
      (eval_poly env start * s, [ (eval_poly env len, eval_poly env step * s) ])

(* The full-extent sub-array at a fixed index prefix: [idx] fixes the
   leading dimensions and [shape] spans the rest. *)
let csub idx shape (ix : cixfn) : cixfn =
  cslice_triplet
    (fun sd s ->
      match sd with `Fix i -> (i * s, []) | `All d -> (0, [ (d, s) ]))
    (List.map (fun i -> `Fix i) idx @ List.map (fun d -> `All d) shape)
    ix

(* Merge adjacent concrete dims (flatten), required for LMAD slicing. *)
let cflatten (l : clmad) : clmad option =
  let rec go = function
    | [] -> Some [ (1, 1) ]
    | [ d ] -> Some [ d ]
    | (n1, s1) :: rest -> (
        match go rest with
        | Some ((n2, s2) :: rest') when s1 = n2 * s2 ->
            Some ((n1 * n2, s2) :: rest')
        | _ -> None)
  in
  match go l.cdims with
  | Some [ d ] -> Some { coff = l.coff; cdims = [ d ] }
  | Some [] -> Some { coff = l.coff; cdims = [ (1, 1) ] }
  | _ -> None

let cslice_lmad env (slc : rlmad) (ix : cixfn) : cixfn =
  match ix with
  | [] -> err "exec: slicing empty ixfn"
  | l :: rest -> (
      match cflatten l with
      | None -> err "exec: LMAD slice of non-flattenable layout"
      | Some flat ->
          let base_s = match flat.cdims with [ (_, s) ] -> s | _ -> 1 in
          let coff = flat.coff + (eval_poly env slc.roff * base_s) in
          let cdims =
            List.map
              (fun (n, s) -> (eval_poly env n, eval_poly env s * base_s))
              slc.rdims
          in
          { coff; cdims } :: rest)

let cslice env (slc : rslice) (ix : cixfn) : cixfn =
  match slc with
  | RTriplet sds -> cslice_triplet (rslice_dim env) sds ix
  | RLmad l -> cslice_lmad env l ix

(* ---------------------------------------------------------------- *)
(* Scalar operations (tolerant in cost-only mode)                    *)
(* ---------------------------------------------------------------- *)

let bin st op a b =
  if st.kernel_depth > 0 then st.counters.flops <- st.counters.flops +. 1.;
  let safe_div x y = if y = 0 && st.mode = Cost_only then 0 else x / y in
  let safe_rem x y = if y = 0 && st.mode = Cost_only then 0 else x mod y in
  match (op, a, b) with
  | Add, AInt x, AInt y -> AInt (x + y)
  | Sub, AInt x, AInt y -> AInt (x - y)
  | Mul, AInt x, AInt y -> AInt (x * y)
  | Div, AInt x, AInt y -> AInt (safe_div x y)
  | Rem, AInt x, AInt y -> AInt (safe_rem x y)
  | Min, AInt x, AInt y -> AInt (min x y)
  | Max, AInt x, AInt y -> AInt (max x y)
  | Add, AFloat x, AFloat y -> AFloat (x +. y)
  | Sub, AFloat x, AFloat y -> AFloat (x -. y)
  | Mul, AFloat x, AFloat y -> AFloat (x *. y)
  | Div, AFloat x, AFloat y -> AFloat (x /. y)
  | Rem, AFloat x, AFloat y -> AFloat (Float.rem x y)
  | Min, AFloat x, AFloat y -> AFloat (Float.min x y)
  | Max, AFloat x, AFloat y -> AFloat (Float.max x y)
  | And, ABool x, ABool y -> ABool (x && y)
  | Or, ABool x, ABool y -> ABool (x || y)
  | _ -> err "exec: ill-typed binop"

let cmp st op a b =
  if st.kernel_depth > 0 then st.counters.flops <- st.counters.flops +. 1.;
  match (op, a, b) with
  | CEq, AInt x, AInt y -> ABool (x = y)
  | CLt, AInt x, AInt y -> ABool (x < y)
  | CLe, AInt x, AInt y -> ABool (x <= y)
  | CEq, AFloat x, AFloat y -> ABool (x = y)
  | CLt, AFloat x, AFloat y -> ABool (x < y)
  | CLe, AFloat x, AFloat y -> ABool (x <= y)
  | CEq, ABool x, ABool y -> ABool (x = y)
  | _ -> err "exec: ill-typed cmp"

let un st op a =
  if st.kernel_depth > 0 then st.counters.flops <- st.counters.flops +. 1.;
  match (op, a) with
  | Neg, AInt x -> AInt (-x)
  | Neg, AFloat x -> AFloat (-.x)
  | Abs, AInt x -> AInt (abs x)
  | Abs, AFloat x -> AFloat (Float.abs x)
  | Sqrt, AFloat x -> AFloat (sqrt (Float.abs x))
  | Exp, AFloat x -> AFloat (exp x)
  | Log, AFloat x -> AFloat (if x <= 0. then 0. else log x)
  | Not, ABool x -> ABool (not x)
  | ToF64, AInt x -> AFloat (float_of_int x)
  | ToI64, AFloat x -> AInt (int_of_float x)
  | _ -> err "exec: ill-typed unop"

let eval_atom env = function RVar r -> lookup env r | RConst v -> v

(* ---------------------------------------------------------------- *)
(* Memory info of a pattern element                                   *)
(* ---------------------------------------------------------------- *)

let mem_info_of rp =
  match rp.rmem with
  | Some m -> m
  | None -> err "exec: %s has no memory annotation" rp.rv

(* The destination (block, ixfn) a pattern element is annotated with.
   Binding a fresh occupant into a freed block (a scratch declaration
   ahead of the kernel that fills it) reclaims it from the pool. *)
let dest_of st env rp =
  let m = mem_info_of rp in
  let b = lookup_block env m.rblock in
  if b.freed then pool_revive st b;
  (b, concretize env m.rix)

let arr_of_pat st env rp =
  match rp.rtyp with
  | TArr (elt, _) ->
      let block, ix = dest_of st env rp in
      AArr { elt; shape = List.map (eval_poly env) rp.rshape; block; ix }
  | _ -> err "exec: %s is not an array pattern" rp.rv

let new_block st ?bname bsize =
  st.next_bid <- st.next_bid + 1;
  {
    bid = st.next_bid;
    bname;
    bsize;
    payload = None;
    devbytes = 0.;
    freed = false;
  }

(* ---------------------------------------------------------------- *)
(* Expression execution                                              *)
(* ---------------------------------------------------------------- *)

let label_or default (s : rstm) = Option.value s.label ~default

let rec exec_exp st env (s : rstm) : aval list =
  match s.rexp with
  | XAtom a -> [ eval_atom env a ]
  | XBin (op, a, b) -> [ bin st op (eval_atom env a) (eval_atom env b) ]
  | XCmp (op, a, b) -> [ cmp st op (eval_atom env a) (eval_atom env b) ]
  | XUn (op, a) -> [ un st op (eval_atom env a) ]
  | XIdx p -> [ AInt (eval_poly env p) ]
  | XIndex (v, idxs) ->
      let a = lookup_arr env v in
      let is = List.map (eval_poly env) idxs in
      [ read_cell st a.block a.elt (capply a.ix is) ]
  | XView v ->
      (* O(1): the result's annotation holds the transformed ixfn *)
      let a = lookup_arr env v in
      let rp = List.hd s.rpat in
      let _, ix = dest_of st env rp in
      [
        AArr
          {
            elt = a.elt;
            shape =
              (match rp.rtyp with
              | TArr _ -> List.map (eval_poly env) rp.rshape
              | _ -> err "exec: view with non-array pattern");
            block = a.block;
            ix;
          };
      ]
  | XIota n ->
      let rp = List.hd s.rpat in
      let out = arr_of_pat st env rp in
      let n = eval_poly env n in
      launch_kernel st ~label:rp.rv
        ~declared:(fun () -> (pat_footprints env s, [], n))
        (fun () ->
          match out with
          | AArr o ->
              (match st.mode with
              | Full ->
                  for i = 0 to n - 1 do
                    write_cell st o.block o.elt (capply o.ix [ i ]) (AInt i)
                  done
              | Cost_only ->
                  st.counters.kernel_writes <-
                    st.counters.kernel_writes +. (float_of_int n *. elem_bytes));
              [ out ]
          | _ -> Core.Fault.internal ~where:"Exec.iota" "scalar destination")
  | XReplicate a ->
      let rp = List.hd s.rpat in
      let out = arr_of_pat st env rp in
      let v = eval_atom env a in
      launch_kernel st ~label:rp.rv
        ~declared:(fun () ->
          ( pat_footprints env s,
            [],
            match out with AArr o -> count o.shape | _ -> 0 ))
        (fun () ->
          match out with
          | AArr o ->
              let n = count o.shape in
              (match st.mode with
              | Full ->
                  iter_indices o.shape (fun idx ->
                      write_cell st o.block o.elt (capply o.ix idx) v)
              | Cost_only ->
                  st.counters.kernel_writes <-
                    st.counters.kernel_writes +. (float_of_int n *. elem_bytes));
              [ out ]
          | _ ->
              Core.Fault.internal ~where:"Exec.replicate" "scalar destination")
  | XScratch ->
      (* no writes: just bind the destination *)
      [ arr_of_pat st env (List.hd s.rpat) ]
  | XCopy v ->
      let a = lookup_arr env v in
      let db, dix = dest_of st env (List.hd s.rpat) in
      copy_logical st a.elt a.shape a.block a.ix db dix;
      [ AArr { a with block = db; ix = dix } ]
  | XConcat vs ->
      let out = arr_of_pat st env (List.hd s.rpat) in
      (match out with
      | AArr o ->
          let row = ref 0 in
          List.iter
            (fun v ->
              let a = lookup_arr env v in
              let d0 = List.hd a.shape in
              let dix =
                cslice_triplet
                  (fun (start, len) s -> (start * s, [ (len, s) ]))
                  ((!row, d0) :: List.map (fun d -> (0, d)) (List.tl a.shape))
                  o.ix
              in
              copy_logical st a.elt a.shape a.block a.ix o.block dix;
              row := !row + d0)
            vs
      | _ -> Core.Fault.internal ~where:"Exec.concat" "scalar destination");
      [ out ]
  | XUpdate { dst; slc; src } -> (
      let d = lookup_arr env dst in
      let tix = cslice env slc d.ix in
      match src with
      | RSrcScalar a ->
          let v = eval_atom env a in
          write_cell st d.block d.elt (capply tix []) v;
          [ AArr d ]
      | RSrcArr sv ->
          let sa = lookup_arr env sv in
          copy_logical st sa.elt sa.shape sa.block sa.ix d.block tix;
          [ AArr d ])
  | XMap { nest; body; dests; reads } ->
      exec_map st env s nest body ~dests ~reads
  | XReduce { op; ne; arr } ->
      let a = lookup_arr env arr in
      let n = count a.shape in
      launch_kernel st ~label:(label_or "reduce" s)
        ~declared:(fun () -> ([], [ arr_footprint arr.name a ], n))
        (fun () ->
          match st.mode with
          | Full ->
              let acc = ref (eval_atom env ne) in
              for i = 0 to n - 1 do
                acc := bin st op !acc (read_cell st a.block a.elt (capply a.ix [ i ]))
              done;
              [ !acc ]
          | Cost_only ->
              tally_reads st a.block (float_of_int n *. elem_bytes);
              st.counters.flops <- st.counters.flops +. float_of_int n;
              [ eval_atom env ne ])
  | XArgmin arr ->
      let a = lookup_arr env arr in
      let n = count a.shape in
      launch_kernel st ~label:(label_or "argmin" s)
        ~declared:(fun () -> ([], [ arr_footprint arr.name a ], n))
        (fun () ->
          match st.mode with
          | Full ->
              let best = ref infinity and besti = ref 0 in
              for i = 0 to n - 1 do
                match read_cell st a.block a.elt (capply a.ix [ i ]) with
                | AFloat x ->
                    if x < !best then (
                      best := x;
                      besti := i)
                | _ -> err "exec: argmin over non-float"
              done;
              [ AFloat !best; AInt !besti ]
          | Cost_only ->
              tally_reads st a.block (float_of_int n *. elem_bytes);
              st.counters.flops <- st.counters.flops +. float_of_int n;
              [ AFloat 0.5; AInt 0 ])
  | XLoop { params; var; bound; body; scalar_carry } ->
      let n = eval_poly env bound in
      let run_iter vals i =
        List.iter2 (fun (_, slot, _) v -> env.(slot) <- v) params vals;
        env.(var) <- AInt i;
        exec_block st env body
      in
      let init () = List.map (fun (_, _, init) -> eval_atom env init) params in
      if st.mode = Cost_only && n >= 24 && not scalar_carry then begin
        (* Simpson-sampled loop: run iterations 0, n/2 and n-1 from the
           initial state and charge n * (d0 + 4*dmid + dlast)/6 - exact
           for per-iteration costs up to quadratic in the index (NW's
           wavefront, LUD's shrinking interior). *)
        let init = init () in
        let base = Device.clone st.counters in
        (* The per-kernel read tallies are part of the sampled state:
           when the loop itself runs inside a kernel (NN's per-thread
           scan) its reads accumulate in [kernel_reads_tally], not in
           the counters, so they must be snapshotted and extrapolated
           with the same Simpson weights or the perfect-L2 cap would
           see only the three sampled iterations' reads.  At top level
           every launch drains its own tally and the deltas are empty. *)
        let tally_list () =
          Hashtbl.fold
            (fun k t acc -> (k, t.bytes, t.tsize) :: acc)
            st.kernel_reads_tally []
        in
        let tally_restore snap =
          tally_reset st;
          List.iter
            (fun (k, bytes, tsize) ->
              Hashtbl.replace st.kernel_reads_tally k { bytes; tsize })
            snap
        in
        let tally_delta before =
          Hashtbl.fold
            (fun bid t acc ->
              let prev =
                match List.find_opt (fun (b, _, _) -> b = bid) before with
                | Some (_, b, _) -> b
                | None -> 0.
              in
              if t.bytes > prev then (bid, t.bytes -. prev, t.tsize) :: acc
              else acc)
            st.kernel_reads_tally []
        in
        let tbase = tally_list () in
        let sample i =
          let before = Device.clone st.counters in
          let u_before = st.unfreed in
          let tbefore = tally_list () in
          let vals = run_iter init i in
          let after = Device.clone st.counters in
          let tdelta = tally_delta tbefore in
          Device.assign st.counters before;
          st.unfreed <- u_before;
          tally_restore tbefore;
          (vals, before, after, tdelta)
        in
        let vals0, b0, a0, t0 = sample 0 in
        (* Pool steady state: iteration 0 ran against the live pool (a
           cold start, so its allocations miss); its in-body frees plus
           the emulated death of its carried generation bring the pool
           to the state an arbitrary later iteration starts from, which
           the mid/last samples then see (their allocations hit).  The
           Simpson weights turn that into ~n/6 misses + ~5n/6 hits,
           against n misses with the pool disabled. *)
        (if st.kernel_depth = 0 && st.pool <> None then begin
           let init_bids =
             List.filter_map
               (function AArr a -> Some a.block.bid | _ -> None)
               init
           in
           let u = st.unfreed in
           List.iter
             (function
               | AArr a when not (List.mem a.block.bid init_bids) ->
                   pool_free st a.block
               | _ -> ())
             vals0;
           (* the sampled blocks' lifetimes were already reverted with
              the counters; only the pool's free-list state is meant
              to advance here *)
           st.unfreed <- u
         end);
        let psteady = Option.map Device.Pool.snapshot st.pool in
        let _, bm, am, tm = sample (n / 2) in
        (match (st.pool, psteady) with
        | Some p, Some s -> Device.Pool.restore p s
        | _ -> ());
        let vals, bl, al, tl = sample (n - 1) in
        Device.assign st.counters base;
        Device.add_simpson st.counters (b0, a0) (bm, am) (bl, al)
          (float_of_int n);
        tally_restore tbase;
        let wf d0 dm dl =
          float_of_int n *. (d0 +. (4. *. dm) +. dl) /. 6.0
        in
        let find bid ts =
          match List.find_opt (fun (b, _, _) -> b = bid) ts with
          | Some (_, d, _) -> d
          | None -> 0.
        in
        let bsize_of bid =
          List.find_map
            (fun (b, _, sz) -> if b = bid then Some sz else None)
            (t0 @ tm @ tl)
        in
        List.iter
          (fun bid ->
            let d = wf (find bid t0) (find bid tm) (find bid tl) in
            match bsize_of bid with
            | Some tsize when d > 0. -> (
                match Hashtbl.find_opt st.kernel_reads_tally bid with
                | Some t -> t.bytes <- t.bytes +. d
                | None ->
                    Hashtbl.replace st.kernel_reads_tally bid
                      { bytes = 0. +. d; tsize })
            | _ -> ())
          (List.sort_uniq compare
             (List.map (fun (b, _, _) -> b) (t0 @ tm @ tl)));
        vals
      end
      else begin
        let vals = ref (init ()) in
        for i = 0 to n - 1 do
          let prev = !vals in
          vals := run_iter prev i;
          (* A carried array whose block leaves the carried set dies
             here: its last read was inside this iteration's body.
             The static analysis attributes the carried value's
             liveness to the loop statement as a whole, so without
             this marker the trace would date the block's death to
             the previous iteration's intra-body markers - before its
             final read. *)
          if st.kernel_depth = 0 then begin
            let new_bids =
              List.filter_map
                (function AArr a -> Some a.block.bid | _ -> None)
                !vals
            in
            List.iter2
              (fun (pv, _, _) v ->
                match v with
                | AArr a when not (List.mem a.block.bid new_bids) ->
                    (match st.tracer with
                    | Some tr -> Trace.last_use tr ~var:pv ~bid:a.block.bid
                    | None -> ());
                    pool_free st a.block
                | _ -> ())
              params prev
          end
        done;
        !vals
      end
  | XIf { cond; tb; fb } -> (
      match eval_atom env cond with
      | ABool true -> exec_block st env tb
      | ABool false -> exec_block st env fb
      | _ -> err "exec: non-boolean condition")
  | XAlloc size ->
      let n = eval_poly env size in
      let b = new_block st n in
      if st.kernel_depth = 0 then begin
        st.counters.allocs <- st.counters.allocs + 1;
        st.alloc_seq <- st.alloc_seq + 1;
        (* arena blocks (introduced by the packing pass) are ordinary
           device allocations - one pool transaction each - but counted
           separately so the bench surface can report suballocation *)
        let bytes = float_of_int n *. elem_bytes in
        if s.arena then begin
          st.counters.arena_allocs <- st.counters.arena_allocs + 1;
          st.counters.arena_bytes <- st.counters.arena_bytes +. bytes
        end;
        st.counters.alloc_bytes <- st.counters.alloc_bytes +. bytes;
        st.counters.live_bytes <- st.counters.live_bytes +. bytes;
        if st.counters.live_bytes > st.counters.peak_bytes then
          st.counters.peak_bytes <- st.counters.live_bytes;
        (* [devbytes > 0] marks the block as device-owned so its death
           is accounted (free list push, or a counted synchronizing
           free when the pool is off); a pool hit overrides it with the
           possibly larger served capacity. *)
        b.devbytes <- bytes;
        st.unfreed <- st.unfreed + 1;
        if st.oom_at > 0 && st.alloc_seq = st.oom_at then
          device_fault st
            (Core.Fault.Device_oom { bytes; at_alloc = st.alloc_seq });
        (match st.pool with
        | Some p -> (
            match Device.Pool.refuses p bytes with
            | Some cap when st.strict_cap ->
                device_fault st (Core.Fault.Pool_cap { bytes; cap })
            | _ -> ())
        | None -> ());
        match st.pool with
        | Some p -> (
            match Device.Pool.alloc p bytes with
            | `Hit served ->
                st.counters.pool_hits <- st.counters.pool_hits + 1;
                b.devbytes <- served
            | `Miss ev ->
                st.counters.pool_misses <- st.counters.pool_misses + 1;
                (* cap evictions are real device frees: each one pays
                   the synchronizing free cost in the time model *)
                st.counters.frees <- st.counters.frees + ev)
        | None -> ()
      end
      else begin
        (* per-thread scratch: lives only for the kernel's duration,
           but while the kernel is in flight every thread's copy exists
           at once, so it counts toward the peak *)
        st.counters.scratch_allocs <- st.counters.scratch_allocs + 1;
        st.alloc_seq <- st.alloc_seq + 1;
        let bytes = float_of_int n *. elem_bytes in
        st.counters.scratch_bytes <- st.counters.scratch_bytes +. bytes;
        st.kernel_scratch <- st.kernel_scratch +. bytes;
        if st.counters.live_bytes +. st.kernel_scratch > st.counters.peak_bytes
        then
          st.counters.peak_bytes <-
            st.counters.live_bytes +. st.kernel_scratch;
        if st.oom_at > 0 && st.alloc_seq = st.oom_at then
          device_fault st
            (Core.Fault.Device_oom { bytes; at_alloc = st.alloc_seq })
      end;
      (match st.tracer with
      | Some tr ->
          Trace.alloc tr ~bid:b.bid ~name:(block_name b) ~elems:n
            ~in_kernel:(st.kernel_depth > 0)
      | None -> ());
      [ AMem b ]

and launch_kernel st ~label ~declared f =
  (* nested parallelism is flattened on a GPU: only top-level mapnests
     pay a launch *)
  let top = st.kernel_depth = 0 in
  let r0 = st.counters.kernel_reads and w0 = st.counters.kernel_writes in
  if top then begin
    st.counters.kernels <- st.counters.kernels + 1;
    st.kernel_scratch <- 0.;
    tally_reset st;
    (* the read-after-own-write suppression is per thread; without
       this reset a reduce/argmin launch inherits the previous
       kernel's final thread and under-counts its first-touch reads *)
    Cells.clear st.thread_writes;
    match st.tracer with
    | Some tr ->
        let declared_writes, declared_reads, threads = declared () in
        Trace.kernel_begin tr ~label ~threads ~declared_writes ~declared_reads
    | None -> ()
  end;
  st.kernel_depth <- st.kernel_depth + 1;
  (* depth must be restored even when the body raises (an injected
     device fault in non-fail-safe mode, a checker exception): a stuck
     nonzero depth would misclassify every later top-level allocation
     as kernel scratch and corrupt the free accounting *)
  let r =
    Fun.protect
      ~finally:(fun () -> st.kernel_depth <- st.kernel_depth - 1)
      f
  in
  if top then begin
    (* perfect-L2: a kernel reads each block location from DRAM once *)
    Hashtbl.iter
      (fun _ t ->
        st.counters.kernel_reads <-
          st.counters.kernel_reads
          +. Float.min t.bytes (float_of_int t.tsize *. elem_bytes))
      st.kernel_reads_tally;
    if st.counters.live_bytes +. st.kernel_scratch > st.counters.peak_bytes
    then
      st.counters.peak_bytes <- st.counters.live_bytes +. st.kernel_scratch;
    st.kernel_scratch <- 0.;
    match st.tracer with
    | Some tr ->
        Trace.kernel_end tr
          ~read_bytes:(st.counters.kernel_reads -. r0)
          ~write_bytes:(st.counters.kernel_writes -. w0)
    | None -> ()
  end;
  r

(* Mapnest execution: one kernel; full mode iterates every thread,
   cost-only samples the midpoint thread and scales. *)
and exec_map st env (s : rstm) nest body ~dests ~reads : aval list =
  let dims = List.map (fun (_, n) -> eval_poly env n) nest in
  let points = count dims in
  let outs = List.map (fun rp -> arr_of_pat st env rp) s.rpat in
  let run_thread idx =
    Cells.clear st.thread_writes;
    List.iter2 (fun (slot, _) i -> env.(slot) <- AInt i) nest idx;
    let results = exec_block st env body in
    (* implicit write of each per-thread result into its slot *)
    List.iter2
      (fun out r ->
        match (out, r) with
        | AArr o, AArr ra ->
            copy_logical st ra.elt ra.shape ra.block ra.ix o.block
              (csub idx ra.shape o.ix)
        | AArr o, (AFloat _ | AInt _ | ABool _) ->
            write_cell st o.block o.elt (capply o.ix idx) r
        | _ -> err "exec: mapnest result mismatch")
      outs results
  in
  launch_kernel st ~label:(label_or "map" s)
    ~declared:(fun () ->
      ( pat_footprints env s @ dest_footprints env dests,
        read_footprints env reads,
        points ))
    (fun () ->
      (match st.mode with
      | Full -> iter_indices dims run_thread
      | Cost_only ->
          if points > 0 then begin
            let mid = List.map (fun d -> d / 2) dims in
            let snap = snapshot st.counters in
            let ks0 = st.kernel_scratch in
            run_thread mid;
            scale_delta st.counters snap (float_of_int points);
            (* every thread holds its own scratch while the kernel is
               in flight *)
            st.kernel_scratch <-
              ks0 +. ((st.kernel_scratch -. ks0) *. float_of_int points);
            if
              st.counters.live_bytes +. st.kernel_scratch
              > st.counters.peak_bytes
            then
              st.counters.peak_bytes <-
                st.counters.live_bytes +. st.kernel_scratch;
            (* scale the per-block read tallies by the thread count
               (capping happens when the kernel retires) *)
            let scaled =
              Hashtbl.fold
                (fun bid t acc ->
                  (bid, { t with bytes = t.bytes *. float_of_int points })
                  :: acc)
                st.kernel_reads_tally []
            in
            tally_reset st;
            List.iter
              (fun (bid, t) -> Hashtbl.replace st.kernel_reads_tally bid t)
              scaled
          end);
      outs)

and snapshot (c : Device.counters) =
  Device.
    ( c.kernel_writes,
      c.flops,
      c.copies,
      c.copy_bytes,
      c.copies_elided,
      c.elided_bytes,
      c.scratch_allocs,
      c.scratch_bytes )

(* Scale the per-thread cost deltas by the thread count (the kernel
   launch itself is not scaled).  Per-thread copies are GPU-side
   gather/scatter, so their count is folded into traffic rather than
   per-copy overhead. *)
and scale_delta (c : Device.counters) snap factor =
  let w0, f0, cp0, cb0, ce0, eb0, sa0, sb0 = snap in
  let open Device in
  c.kernel_writes <- w0 +. ((c.kernel_writes -. w0) *. factor);
  c.flops <- f0 +. ((c.flops -. f0) *. factor);
  c.copies <- cp0 + (if c.copies > cp0 then 1 else 0);
  c.copy_bytes <- cb0 +. ((c.copy_bytes -. cb0) *. factor);
  c.copies_elided <- ce0 + (if c.copies_elided > ce0 then 1 else 0);
  c.elided_bytes <- eb0 +. ((c.elided_bytes -. eb0) *. factor);
  c.scratch_allocs <-
    sa0
    + int_of_float
        (Float.round (float_of_int (c.scratch_allocs - sa0) *. factor));
  c.scratch_bytes <- sb0 +. ((c.scratch_bytes -. sb0) *. factor)

and exec_block st env (b : rblock) : aval list =
  List.iter
    (fun s ->
      let vals = exec_exp st env s in
      if List.length vals <> List.length s.rpat then err "exec: arity mismatch";
      List.iter2 (fun rp v -> env.(rp.rslot) <- v) s.rpat vals;
      (* Liveness markers are only meaningful at top level: inside a
         kernel the same body runs once per thread, and per-thread
         "deaths" say nothing about the cross-kernel liveness the
         short-circuiting pass consumed. *)
      if st.kernel_depth = 0 && s.lus <> [] then begin
        (* A block aliased by a value this lexical block returns
           provably flows past every statement here (a rotated loop
           re-reads the carried buffer next iteration; a result block
           is read by the enclosing code), so a last-use marker for a
           variable living in it would date the block's death too
           early. *)
        let res_bids = List.filter_map (result_bid env) s.res_refs in
        List.iter
          (fun (v, r) ->
            if r.slot >= 0 then
              match env.(r.slot) with
              | AArr a when not (List.mem a.block.bid res_bids) ->
                  (match st.tracer with
                  | Some tr -> Trace.last_use tr ~var:v ~bid:a.block.bid
                  | None -> ());
                  pool_free st a.block
              | _ -> ())
          s.lus
      end)
    b.rstms;
  List.map (eval_atom env) b.rres

(* The block a result variable lives in; when it is not bound yet (a
   later statement of the block binds it), the block its annotation
   names. *)
and result_bid env (v, annotated) =
  let bound = if v.slot >= 0 then Some env.(v.slot) else None in
  match bound with
  | Some (AArr a) -> Some a.block.bid
  | Some (AMem blk) -> Some blk.bid
  | _ -> (
      match annotated with
      | Some r when r.slot >= 0 -> (
          match env.(r.slot) with AMem blk -> Some blk.bid | _ -> None)
      | _ -> None)

(* ---------------------------------------------------------------- *)
(* Program entry                                                     *)
(* ---------------------------------------------------------------- *)

(* A parameter's slots: an array parameter also binds its annotated
   block name, ahead of itself. *)
let r_param rs scope pe =
  let bslot, scope =
    match (pe.pt, pe.pmem) with
    | TArr _, Some m ->
        let slot = fresh_slot rs in
        (slot, SM.add m.block slot scope)
    | _ -> (-1, scope)
  in
  let slot = fresh_slot rs in
  (SM.add pe.pv slot scope, (pe, bslot, slot))

(* Wrap an input Value into the frame: arrays get their own block
   filled with the data (Full) or left virtual (Cost_only). *)
let bind_param st env (pe, bslot, slot) (v : Value.t) =
  match (pe.pt, v) with
  | TScalar _, Value.VInt i -> env.(slot) <- AInt i
  | TScalar _, Value.VFloat f -> env.(slot) <- AFloat f
  | TScalar _, Value.VBool b -> env.(slot) <- ABool b
  | TArr (elt, _), Value.VArr a ->
      let m =
        match pe.pmem with
        | Some m -> m
        | None -> err "exec: %s has no memory annotation" pe.pv
      in
      let n = Value.count a.Value.shape in
      let blk = new_block st ~bname:m.block n in
      (match st.mode with
      | Full ->
          let p = ensure_payload blk elt in
          (match (p, a.Value.data) with
          | PF d, Value.DF s -> Array.blit s 0 d 0 n
          | PI d, Value.DI s -> Array.blit s 0 d 0 n
          | PB d, Value.DB s -> Array.blit s 0 d 0 n
          | _ -> err "exec: param payload mismatch")
      | Cost_only -> ());
      (match st.tracer with
      | Some tr ->
          Trace.alloc tr ~bid:blk.bid ~name:m.block ~elems:n ~in_kernel:false
      | None -> ());
      env.(bslot) <- AMem blk;
      env.(slot) <-
        AArr
          {
            elt;
            shape = a.Value.shape;
            block = blk;
            ix =
              [
                {
                  coff = 0;
                  cdims =
                    (let rec strides = function
                       | [] -> []
                       | [ _ ] -> [ 1 ]
                       | _ :: rest ->
                           let ss = strides rest in
                           (match (rest, ss) with
                           | n :: _, s :: _ -> n * s
                           | _ ->
                               Core.Fault.internal ~where:"Exec.strides"
                                 "stride list out of step with shape")
                           :: ss
                     in
                     List.combine a.Value.shape (strides a.Value.shape));
                };
              ];
          }
  | _ -> err "exec: bad argument for %s" pe.pv

(* Read an array value back out of device memory. *)
let materialize st (v : aval) : Value.t =
  match v with
  | AInt i -> Value.VInt i
  | AFloat f -> Value.VFloat f
  | ABool b -> Value.VBool b
  | AMem _ -> Value.VMem 0
  | AArr a -> (
      match st.mode with
      | Cost_only -> Value.VArr (Value.shell a.elt a.shape)
      | Full ->
          let out = Value.zeros a.elt a.shape in
          let i = ref 0 in
          iter_indices a.shape (fun idx ->
              let cell =
                match read_cell st a.block a.elt (capply a.ix idx) with
                | AFloat f -> Value.VFloat f
                | AInt x -> Value.VInt x
                | ABool b -> Value.VBool b
                | _ ->
                    Core.Fault.internal ~where:"Exec.materialize"
                      "array cell read back as an array"
              in
              Value.set_flat out !i cell;
              incr i);
          Value.VArr out)

type report = {
  results : Value.t list;
  counters : Device.counters;
  trace : Trace.t option;
  pool : Device.Pool.stats option;
  faults : Core.Fault.t list;
}

let run ?(mode = Full) ?(trace = false) ?(pool = true) ?pool_cap
    ?(variant = "program") ?mutation ?(fail_safe = true)
    ?(strict_cap = false) ?(oom_at = 0) (p : prog) (args : Value.t list) :
    report =
  let tracer =
    if trace then
      Some
        (Trace.create ~program:p.name ~variant ~exact:(mode = Full) ())
    else None
  in
  let rs = ref 0 in
  let scope, params = List.fold_left_map (r_param rs) SM.empty p.params in
  let body = r_block rs scope p.body in
  let env = Array.make !rs (AInt 0) in
  let st =
    {
      mode;
      counters = Device.fresh_counters ();
      tracer;
      mutation;
      pool =
        (if pool then Some (Device.Pool.create ?cap:pool_cap ())
         else None);
      fail_safe;
      strict_cap;
      oom_at;
      alloc_seq = 0;
      next_bid = 0;
      exec_faults = [];
      unfreed = 0;
      kernel_depth = 0;
      kernel_scratch = 0.;
      thread_writes = Cells.create ();
      kernel_reads_tally = Hashtbl.create 64;
      tally_bid = 0;
      tally_cell = { bytes = 0.; tsize = 0 };
    }
  in
  if List.length args <> List.length p.params then
    err "exec: %s expects %d arguments" p.name (List.length p.params);
  List.iter2 (bind_param st env) params args;
  (* Teardown: without a pool, every device allocation is eventually
     matched by a synchronizing [cudaFree] - blocks that died mid-run
     were already counted by [pool_free]; top up with the frees of the
     [unfreed] blocks still live when the program hands back its
     results (an outstanding-block count, not [allocs - frees]: after
     a mid-run pool degradation the flush evictions already sit in
     [frees], and an absolute top-up would double-count them).  A
     pooled run tears the whole arena down in one context destruction
     instead, which is why [frees] stays 0 there.  Guarded so it runs
     exactly once, and [Fun.protect] runs it even when the executor
     raises mid-kernel - counters stay consistent under injected
     faults. *)
  let torn_down = ref false in
  let teardown () =
    if not !torn_down then begin
      torn_down := true;
      if st.pool = None then
        match st.mode with
        | Full ->
            st.counters.frees <- st.counters.frees + st.unfreed;
            st.unfreed <- 0
        | Cost_only ->
            (* sampled counters are Simpson extrapolations, so the
               outstanding-block count cannot be matched against them;
               keep the legacy absolute top-up *)
            if st.counters.allocs > st.counters.frees then
              st.counters.frees <- st.counters.allocs
    end
  in
  let res =
    Fun.protect ~finally:teardown (fun () -> exec_block st env body)
  in
  (* reading back results is not part of the measured cost (or trace) *)
  let saved = st.counters.kernel_reads in
  Option.iter Trace.mute st.tracer;
  let results = List.map (materialize st) res in
  st.counters.kernel_reads <- saved;
  {
    results;
    counters = st.counters;
    trace = tracer;
    pool = Option.map Device.Pool.stats st.pool;
    faults = List.rev st.exec_faults;
  }

(* Simulated time on a device for a completed run. *)
let time device (r : report) = Device.time device r.counters
