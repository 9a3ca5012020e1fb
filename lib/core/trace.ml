(* Execution traces of the memory-aware GPU executor.

   A trace is the dynamic counterpart of the static memory annotations:
   every executed operation that touches memory appends a structured
   event - allocations, kernel launches with their *declared* (static,
   concretized) and *actual* (observed) footprints, copies with their
   elision decision, and last-use markers.  The [Memtrace] checker
   replays a trace against the declared footprints; this module only
   collects and renders.

   Events are device-level: offsets are flat element offsets into a
   block, and declared regions are concrete LMADs ({!Lmads.Lmad.concrete})
   obtained by evaluating the static annotations under the launch-time
   environment.  A declared region of [None] means "the whole block"
   (the static annotation mentioned per-thread variables that have no
   single launch-time value, so the enumerable region degrades to the
   block bound). *)

module Lmad = Lmads.Lmad

type clmad = Lmad.concrete

type footprint = {
  fvar : string; (* array variable the region belongs to *)
  fbid : int; (* block id *)
  fregion : clmad list option; (* None: anywhere in the block *)
}

type kernel = {
  kid : int; (* launch sequence number *)
  klabel : string; (* binding variable of the launching statement *)
  kthreads : int;
  declared_writes : footprint list;
  declared_reads : footprint list;
  fresh : int list; (* blocks allocated inside this kernel (thread-private) *)
  writes : (int * int list) list; (* bid -> distinct offsets, sorted *)
  reads : (int * int list) list;
  read_bytes : float; (* modeled DRAM traffic of this launch *)
  write_bytes : float;
}

type copy = {
  csrc : int;
  cdst : int;
  cshape : int list; (* logical shape copied *)
  csix : clmad list; (* concrete index function chains, head first *)
  cdix : clmad list;
  cbytes : float;
  celided : bool;
  cin_kernel : bool;
}

type event =
  | Alloc of { bid : int; name : string; elems : int; in_kernel : bool }
  | Kernel of kernel
  | Copy of copy
  | Last_use of { var : string; bid : int }

type t = {
  program : string;
  variant : string; (* provenance: which pipeline stage produced the code *)
  exact : bool; (* Full mode: offsets were recorded exhaustively *)
  mutable events_rev : event list;
  mutable next_kid : int;
  mutable muted : bool; (* result readback is not part of the execution *)
  (* current top-level kernel under construction *)
  mutable cur : building option;
}

and building = {
  b_label : string;
  b_threads : int;
  b_dw : footprint list;
  b_dr : footprint list;
  mutable b_fresh : int list;
  b_wr : touched;
  b_rd : touched;
}

(* The distinct offsets one kernel touched, per block.  Accesses come
   in runs on one block, so the last block's set is kept at hand and
   the table is consulted only when the block changes. *)
and touched = {
  sets : (int, offsets) Hashtbl.t;
  mutable last : (int * offsets) option;
}

(* A bit per non-negative offset, so the set comes out sorted without
   a sort; negative offsets (only a faulty access computes one) are
   kept aside. *)
and offsets = { mutable bits : Bytes.t; mutable neg : int list }

let create ~program ~variant ~exact () =
  {
    program;
    variant;
    exact;
    events_rev = [];
    next_kid = 0;
    muted = false;
    cur = None;
  }

let program t = t.program
let variant t = t.variant
let exact t = t.exact
let events t = List.rev t.events_rev
let emit t e = if not t.muted then t.events_rev <- e :: t.events_rev
let mute t = t.muted <- true

let alloc t ~bid ~name ~elems ~in_kernel =
  emit t (Alloc { bid; name; elems; in_kernel });
  if in_kernel then
    match t.cur with Some b -> b.b_fresh <- bid :: b.b_fresh | None -> ()

let last_use t ~var ~bid = emit t (Last_use { var; bid })

let kernel_begin t ~label ~threads ~declared_writes ~declared_reads =
  if not t.muted then
    t.cur <-
      Some
        {
          b_label = label;
          b_threads = threads;
          b_dw = declared_writes;
          b_dr = declared_reads;
          b_fresh = [];
          b_wr = { sets = Hashtbl.create 16; last = None };
          b_rd = { sets = Hashtbl.create 16; last = None };
        }

let add_offset s off =
  if off < 0 then s.neg <- off :: s.neg
  else begin
    let byte = off lsr 3 in
    let len = Bytes.length s.bits in
    if byte >= len then begin
      let grown = Bytes.make (max (byte + 1) (2 * len)) '\000' in
      Bytes.blit s.bits 0 grown 0 len;
      s.bits <- grown
    end;
    Bytes.set s.bits byte
      (Char.unsafe_chr
         (Char.code (Bytes.get s.bits byte) lor (1 lsl (off land 7))))
  end

let touch tc bid off =
  match tc.last with
  | Some (b, s) when b = bid -> add_offset s off
  | _ ->
      let s =
        match Hashtbl.find_opt tc.sets bid with
        | Some s -> s
        | None ->
            let s = { bits = Bytes.make 16 '\000'; neg = [] } in
            Hashtbl.add tc.sets bid s;
            s
      in
      tc.last <- Some (bid, s);
      add_offset s off

let kernel_read t ~bid ~off =
  match t.cur with Some b when not t.muted -> touch b.b_rd bid off | _ -> ()

let kernel_write t ~bid ~off =
  match t.cur with Some b when not t.muted -> touch b.b_wr bid off | _ -> ()

let offset_list s =
  let acc = ref [] in
  for byte = Bytes.length s.bits - 1 downto 0 do
    let c = Char.code (Bytes.get s.bits byte) in
    if c <> 0 then
      for bit = 7 downto 0 do
        if c land (1 lsl bit) <> 0 then acc := ((byte * 8) + bit) :: !acc
      done
  done;
  List.sort_uniq compare s.neg @ !acc

let offsets_of tc =
  Hashtbl.fold (fun bid s acc -> (bid, offset_list s) :: acc) tc.sets []
  |> List.sort compare

let kernel_end t ~read_bytes ~write_bytes =
  match t.cur with
  | None -> ()
  | Some b ->
      let k =
        {
          kid = t.next_kid;
          klabel = b.b_label;
          kthreads = b.b_threads;
          declared_writes = b.b_dw;
          declared_reads = b.b_dr;
          fresh = List.rev b.b_fresh;
          writes = offsets_of b.b_wr;
          reads = offsets_of b.b_rd;
          read_bytes;
          write_bytes;
        }
      in
      t.next_kid <- t.next_kid + 1;
      t.cur <- None;
      emit t (Kernel k)

let copy t ~src ~dst ~shape ~six ~dix ~bytes ~elided ~in_kernel =
  emit t
    (Copy
       {
         csrc = src;
         cdst = dst;
         cshape = shape;
         csix = six;
         cdix = dix;
         cbytes = bytes;
         celided = elided;
         cin_kernel = in_kernel;
       })

(* ---------------------------------------------------------------- *)
(* Replay helpers                                                    *)
(* ---------------------------------------------------------------- *)

(* Apply a concrete index-function chain to a logical index: the
   executor's addressing, replicated so the checker can re-enumerate a
   copy's image without executing anything. *)
let apply (ix : clmad list) (idxs : int list) : int =
  match ix with
  | [] -> invalid_arg "Trace.apply: empty index function"
  | first :: rest ->
      let app (l : clmad) idxs =
        List.fold_left2
          (fun acc i (_, s) -> acc + (i * s))
          l.Lmad.coff idxs l.Lmad.cdims
      in
      let o = ref (app first idxs) in
      List.iter
        (fun (l : clmad) ->
          let shp = List.map fst l.Lmad.cdims in
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

let image (ix : clmad list) (shape : int list) : int list =
  List.sort_uniq compare
    (List.map (apply ix) (Ir.Value.indices shape))

(* ---------------------------------------------------------------- *)
(* Derived summaries                                                 *)
(* ---------------------------------------------------------------- *)

let block_names t =
  List.fold_left
    (fun acc e ->
      match e with
      | Alloc { bid; name; _ } -> (bid, name) :: acc
      | _ -> acc)
    [] (events t)

let kernels t =
  List.filter_map (function Kernel k -> Some k | _ -> None) (events t)

let copies t =
  List.filter_map (function Copy c -> Some c | _ -> None) (events t)

(* Per-kernel-label traffic histogram: (label, launches, read bytes,
   write bytes), ordered by total traffic. *)
let histogram t : (string * int * float * float) list =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun k ->
      let base = Ir.Names.base k.klabel in
      let n, r, w =
        Option.value (Hashtbl.find_opt tbl base) ~default:(0, 0., 0.)
      in
      Hashtbl.replace tbl base
        (n + 1, r +. k.read_bytes, w +. k.write_bytes))
    (kernels t);
  Hashtbl.fold (fun l (n, r, w) acc -> (l, n, r, w) :: acc) tbl []
  |> List.sort (fun (_, _, r1, w1) (_, _, r2, w2) ->
         compare (r2 +. w2) (r1 +. w1))

type traffic = {
  t_kernel_reads : float;
  t_kernel_writes : float;
  t_copy_bytes : float;
  t_elided_bytes : float;
}

let traffic t =
  List.fold_left
    (fun acc e ->
      match e with
      | Kernel k ->
          {
            acc with
            t_kernel_reads = acc.t_kernel_reads +. k.read_bytes;
            t_kernel_writes = acc.t_kernel_writes +. k.write_bytes;
          }
      | Copy c when c.celided ->
          { acc with t_elided_bytes = acc.t_elided_bytes +. c.cbytes }
      | Copy c when not c.cin_kernel ->
          { acc with t_copy_bytes = acc.t_copy_bytes +. c.cbytes }
      | _ -> acc)
    {
      t_kernel_reads = 0.;
      t_kernel_writes = 0.;
      t_copy_bytes = 0.;
      t_elided_bytes = 0.;
    }
    (events t)

(* ---------------------------------------------------------------- *)
(* Rendering                                                         *)
(* ---------------------------------------------------------------- *)

let pp_region ppf = function
  | None -> Fmt.string ppf "whole-block"
  | Some ls -> Fmt.(list ~sep:(any " U ") Lmad.pp_concrete) ppf ls

let pp_footprint ppf f =
  Fmt.pf ppf "%s@@blk%d:%a" f.fvar f.fbid pp_region f.fregion

let total_offsets l =
  List.fold_left (fun acc (_, offs) -> acc + List.length offs) 0 l

let pp_event ppf = function
  | Alloc { bid; name; elems; in_kernel } ->
      Fmt.pf ppf "alloc blk%d (%s) %d elems%s" bid name elems
        (if in_kernel then " [in-kernel]" else "")
  | Kernel k ->
      Fmt.pf ppf
        "@[<v2>kernel #%d %s: %d threads, %.0fB read, %.0fB written@,\
         declared writes: %a@,\
         declared reads:  %a@,\
         touched: %d writes, %d reads across %d blocks@]" k.kid k.klabel
        k.kthreads k.read_bytes k.write_bytes
        Fmt.(list ~sep:comma pp_footprint)
        k.declared_writes
        Fmt.(list ~sep:comma pp_footprint)
        k.declared_reads (total_offsets k.writes) (total_offsets k.reads)
        (List.length
           (List.sort_uniq compare (List.map fst k.writes @ List.map fst k.reads)))
  | Copy c ->
      Fmt.pf ppf "copy blk%d -> blk%d, %.0fB%s%s" c.csrc c.cdst c.cbytes
        (if c.celided then " [ELIDED]" else "")
        (if c.cin_kernel then " [in-kernel]" else "")
  | Last_use { var; bid } -> Fmt.pf ppf "last-use %s (blk%d)" var bid

let pp ppf t =
  Fmt.pf ppf "@[<v>trace of %s (%s, %s)@,%a@]" t.program t.variant
    (if t.exact then "exact" else "sampled")
    Fmt.(list ~sep:cut pp_event)
    (events t)

(* ---------------------------------------------------------------- *)
(* JSON                                                              *)
(* ---------------------------------------------------------------- *)

let to_json t =
  let open Json in
  let ints l = Arr (List.map int l) in
  let region ls =
    Arr
      (List.map
         (fun (c : clmad) ->
           Obj
             [
               ("off", int c.Lmad.coff);
               ( "dims",
                 Arr (List.map (fun (n, s) -> ints [ n; s ]) c.Lmad.cdims) );
             ])
         ls)
  in
  let footprint f =
    Obj
      [
        ("var", Str f.fvar);
        ("block", int f.fbid);
        ("region", Option.fold ~none:Null ~some:region f.fregion);
      ]
  in
  let offsets l =
    Arr
      (List.map
         (fun (bid, offs) -> Obj [ ("block", int bid); ("offsets", ints offs) ])
         l)
  in
  let event = function
    | Alloc { bid; name; elems; in_kernel } ->
        Obj
          [
            ("event", Str "alloc");
            ("block", int bid);
            ("name", Str name);
            ("elems", int elems);
            ("in_kernel", Bool in_kernel);
          ]
    | Kernel k ->
        Obj
          [
            ("event", Str "kernel");
            ("id", int k.kid);
            ("label", Str k.klabel);
            ("threads", int k.kthreads);
            ("declared_writes", Arr (List.map footprint k.declared_writes));
            ("declared_reads", Arr (List.map footprint k.declared_reads));
            ("fresh", ints k.fresh);
            ("writes", offsets k.writes);
            ("reads", offsets k.reads);
            ("read_bytes", Num k.read_bytes);
            ("write_bytes", Num k.write_bytes);
          ]
    | Copy c ->
        Obj
          [
            ("event", Str "copy");
            ("src", int c.csrc);
            ("dst", int c.cdst);
            ("shape", ints c.cshape);
            ("src_ix", region c.csix);
            ("dst_ix", region c.cdix);
            ("bytes", Num c.cbytes);
            ("elided", Bool c.celided);
            ("in_kernel", Bool c.cin_kernel);
          ]
    | Last_use { var; bid } ->
        Obj [ ("event", Str "last_use"); ("var", Str var); ("block", int bid) ]
  in
  let tr = traffic t in
  Obj
    [
      ("program", Str t.program);
      ("variant", Str t.variant);
      ("exact", Bool t.exact);
      ( "traffic",
        Obj
          [
            ("kernel_reads", Num tr.t_kernel_reads);
            ("kernel_writes", Num tr.t_kernel_writes);
            ("copy_bytes", Num tr.t_copy_bytes);
            ("elided_bytes", Num tr.t_elided_bytes);
          ] );
      ( "histogram",
        Arr
          (List.map
             (fun (l, n, r, w) ->
               Obj
                 [
                   ("label", Str l);
                   ("launches", int n);
                   ("read_bytes", Num r);
                   ("write_bytes", Num w);
                 ])
             (histogram t)) );
      ("events", Arr (List.map event (events t)));
    ]

(* ---------------------------------------------------------------- *)
(* Skeletons: variant-invariant logical event sequences              *)
(* ---------------------------------------------------------------- *)

(* The memory optimizations relocate and elide storage; they must not
   change *what* the program computes.  The skeleton of a trace is the
   sequence of logical actions - kernel launches (by base label and
   thread count) and logical copies (by shape) - with everything the
   optimizer is allowed to change stripped: block identities, copy
   elision, allocations, liveness markers.  Two variants of one
   program must produce identical skeletons. *)
type skeleton_event =
  | SKernel of { slabel : string; sthreads : int }
  | SCopy of { sshape : int list }

let skeleton t : skeleton_event list =
  List.filter_map
    (function
      | Kernel k ->
          Some
            (SKernel
               { slabel = Ir.Names.base k.klabel; sthreads = k.kthreads })
      | Copy c when not c.cin_kernel -> Some (SCopy { sshape = c.cshape })
      | Alloc _ | Copy _ | Last_use _ -> None)
    (events t)

let pp_skeleton_event ppf = function
  | SKernel { slabel; sthreads } ->
      Fmt.pf ppf "kernel %s (%d threads)" slabel sthreads
  | SCopy { sshape } ->
      Fmt.pf ppf "copy [%a]" Fmt.(list ~sep:comma int) sshape

(* First [limit] skeleton divergences between two traces of the same
   program, rendered; empty means the variants agree on the logical
   event sequence. *)
let diff ?(limit = 10) ta tb : string list =
  let sa = Array.of_list (skeleton ta)
  and sb = Array.of_list (skeleton tb) in
  let na = Array.length sa and nb = Array.length sb in
  let out = ref [] and count = ref 0 in
  let emit fmt = Fmt.kstr (fun s -> out := s :: !out; incr count) fmt in
  let i = ref 0 in
  while !i < max na nb && !count < limit do
    (match
       ( (if !i < na then Some sa.(!i) else None),
         if !i < nb then Some sb.(!i) else None )
     with
    | Some a, Some b when a = b -> ()
    | Some a, Some b ->
        emit "event %d: %s %a <> %s %a" !i (variant ta) pp_skeleton_event a
          (variant tb) pp_skeleton_event b
    | Some a, None ->
        emit "event %d: only in %s: %a" !i (variant ta) pp_skeleton_event a
    | None, Some b ->
        emit "event %d: only in %s: %a" !i (variant tb) pp_skeleton_event b
    | None, None -> ());
    incr i
  done;
  let rest = max na nb - !i in
  if !count >= limit && rest > 0 then
    emit "... (%d further events not compared)" rest;
  if na <> nb && !count < limit then
    emit "event counts differ: %s has %d, %s has %d" (variant ta) na
      (variant tb) nb;
  List.rev !out
