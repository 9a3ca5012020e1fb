(** Memory-reference summaries as unions of LMADs (section V-B).

    These are the [U_xss] and [W_bs] summaries of the short-circuiting
    analysis: the uses of the destination's memory, and the writes
    through the rebased candidate.  The analysis only ever needs union,
    loop aggregation, and pairwise disjointness - no intersection or
    subtraction, which the paper notes keeps it much simpler than full
    parallelism analysis.  [Top] conservatively denotes "all of memory"
    (footnote 26). *)

module P = Symalg.Poly
module Pr = Symalg.Prover

type t = Top | Union of Lmad.t list

val empty : t
val top : t
val of_lmad : Lmad.t -> t

val is_empty : Pr.t -> t -> bool
(** Provably denotes no locations ([Top] never does). *)

val union : t -> t -> t
val add_lmad : Lmad.t -> t -> t
val unions : t list -> t

val disjoint : ?depth:int -> Pr.t -> t -> t -> bool
(** Pairwise sufficient disjointness via {!Nonoverlap.disjoint};
    [depth] is forwarded to the splitting recursion. *)

val disjoint_lmad : ?depth:int -> Pr.t -> Lmad.t -> t -> bool

val expand_loop : Pr.t -> string -> count:P.t -> t -> t
(** Aggregate over a loop index by dimension promotion; any LMAD whose
    expansion fails overestimates the whole summary to [Top]. *)

val subst : string -> P.t -> t -> t
val subst_map : P.t P.SM.t -> t -> t

val threads_disjoint :
  disjoint:(Pr.t -> t -> t -> bool) ->
  Pr.t ->
  (string * P.t) list ->
  w:t ->
  u:t ->
  bool
(** [threads_disjoint ~disjoint ctx nest ~w ~u] - the mapnest rule of
    section V-B: for a nest of [(variable, count)] dimensions, the
    writes [w] of one thread avoid the set [u] (over the same nest
    variables) of every {e other} thread.  The other thread is
    case-split on the first differing dimension (equal before it,
    strictly smaller or larger at it, free after it), each case
    discharged by [disjoint].  The other thread's index is the proof
    variable ["#othr_" ^ v], a name no program can bind, so the
    queries depend on the program alone. *)

val concretize : (string -> int) -> t -> Lmad.concrete list option
(** Evaluate the summary under a concrete assignment: the finite union
    of {!Lmad.concrete} point sets it denotes, or [None] for [Top]
    (all of memory has no finite enumeration).  Used by the execution
    tracer to turn static footprints into checkable offset sets. *)

val vars : t -> string list
(** Free variables (empty for [Top]). *)

val pp : Format.formatter -> t -> unit
