(** Structured execution traces of the memory-aware GPU executor.

    A trace records, in program order, every memory-relevant action of
    one {!Gpu.Exec.run}: block allocations, kernel launches, copies
    (with their elision decision at short-circuit points), and the
    last-use markers of the static liveness annotation.  Each kernel
    event carries both its {e declared} footprint - the static LMAD
    annotations concretized at launch time - and its {e actual}
    footprint - the distinct offsets the threads touched (recorded
    exhaustively in [Full] mode).  The {!Memtrace} checker replays a
    trace and confirms the dynamic behaviour stays inside the static
    claims; this module only collects and renders.

    The collection API ([create], [alloc], [kernel_begin] …) is driven
    by the executor; ordinary clients consume finished traces through
    the {{!section-derived}derived summaries} and renderers. *)

type clmad = Lmads.Lmad.concrete
(** A fully concrete LMAD: integer offset plus (cardinal, stride)
    pairs.  See {!Lmads.Lmad.concretize}. *)

(** A declared region of one array inside one block.  [fregion = None]
    means the annotation mentioned per-thread variables with no single
    launch-time value, so the enumerable claim degrades to "anywhere in
    the block" (still bounded by the block size). *)
type footprint = { fvar : string; fbid : int; fregion : clmad list option }

(** One kernel launch: declared vs. actual footprints plus the modeled
    DRAM traffic the launch was charged.  [fresh] lists blocks
    allocated {e inside} the launch (thread-private scratch); accesses
    to those are not part of the static cross-thread story.  [writes]
    and [reads] map block ids to the sorted distinct offsets touched
    (empty when the trace is not {!exact}). *)
type kernel = {
  kid : int;
  klabel : string;
  kthreads : int;
  declared_writes : footprint list;
  declared_reads : footprint list;
  fresh : int list;
  writes : (int * int list) list;
  reads : (int * int list) list;
  read_bytes : float;
  write_bytes : float;
}

(** One logical copy: source/destination blocks, the logical shape
    moved, and the concrete index-function chains of both sides
    (head-side first, memory-side last).  [celided] records the
    executor's short-circuit decision: the copy cost nothing because
    source and destination were the same location. *)
type copy = {
  csrc : int;
  cdst : int;
  cshape : int list;
  csix : clmad list;
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
      (** The statement binding the marker was the statically computed
          last use of [var] (which lives in block [bid]). *)

type t

val program : t -> string
val variant : t -> string

val exact : t -> bool
(** [true] when the executor ran in [Full] mode and per-kernel offset
    sets are exhaustive; sampled (cost-only) traces keep the event
    structure but have empty offset sets. *)

val events : t -> event list
(** All events, in program order. *)

(** {2 Collection (driven by the executor)} *)

val create : program:string -> variant:string -> exact:bool -> unit -> t
val alloc : t -> bid:int -> name:string -> elems:int -> in_kernel:bool -> unit
val last_use : t -> var:string -> bid:int -> unit

val kernel_begin :
  t ->
  label:string ->
  threads:int ->
  declared_writes:footprint list ->
  declared_reads:footprint list ->
  unit

val kernel_read : t -> bid:int -> off:int -> unit
val kernel_write : t -> bid:int -> off:int -> unit

val kernel_end : t -> read_bytes:float -> write_bytes:float -> unit
(** Finalize the kernel opened by [kernel_begin] into a {!Kernel}
    event, with the DRAM traffic the cost model charged the launch. *)

val copy :
  t ->
  src:int ->
  dst:int ->
  shape:int list ->
  six:clmad list ->
  dix:clmad list ->
  bytes:float ->
  elided:bool ->
  in_kernel:bool ->
  unit

val mute : t -> unit
(** Stop recording: result readback at the end of a run is not part of
    the measured execution. *)

(** {2 Replay helpers} *)

val apply : clmad list -> int list -> int
(** Apply a concrete index-function chain to a logical index - the
    executor's addressing, replicated so checkers can re-enumerate
    footprints without executing anything. *)

val image : clmad list -> int list -> int list
(** The distinct flat offsets [apply] produces over every logical
    index of the given shape, sorted. *)

(** {2:derived Derived summaries} *)

val block_names : t -> (int * string) list
val kernels : t -> kernel list
val copies : t -> copy list

val histogram : t -> (string * int * float * float) list
(** Per-kernel traffic histogram, grouped by the launch label's base
    name: [(label, launches, read bytes, write bytes)], heaviest
    first. *)

type traffic = {
  t_kernel_reads : float;
  t_kernel_writes : float;
  t_copy_bytes : float;
  t_elided_bytes : float;
}

val traffic : t -> traffic
(** Total measured traffic of the trace (elided bytes are the copies
    short-circuiting made free). *)

(** {2 Rendering} *)

val pp_footprint : Format.formatter -> footprint -> unit
val pp_event : Format.formatter -> event -> unit
val pp : Format.formatter -> t -> unit

val to_json : t -> Json.t
(** The whole trace as a single JSON object: provenance, traffic
    totals, the per-kernel histogram, and the event list. *)

(** {2 Skeletons}

    The memory optimizations relocate and elide storage; they must not
    change what the program computes.  The {e skeleton} of a trace is
    its sequence of logical actions - kernel launches (base label,
    thread count) and logical copies (shape) - with everything the
    optimizer may legitimately change stripped out: block identities,
    copy elision flags, allocations, and liveness markers.  Two
    variants of one program must produce identical skeletons; [repro
    trace --diff] checks exactly this. *)

type skeleton_event =
  | SKernel of { slabel : string; sthreads : int }
  | SCopy of { sshape : int list }

val skeleton : t -> skeleton_event list
val pp_skeleton_event : Format.formatter -> skeleton_event -> unit

val diff : ?limit:int -> t -> t -> string list
(** Rendered skeleton divergences between two traces of the same
    program (at most [limit], default 10); [[]] means the variants
    agree on the logical event sequence. *)
