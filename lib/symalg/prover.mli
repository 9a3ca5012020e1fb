(** A sound, incomplete prover for polynomial (in)equalities over integer
    variables with known symbolic bounds.

    This replaces the external SMT solver the paper used to discharge the
    inequalities produced by the non-overlap theorem (section V-C/V-D).
    All [prove_*] functions are sufficient-condition tests: [true] means
    the fact holds under every assignment satisfying the context; [false]
    means it could not be established (not that it is false). *)

(** Extended integers, used for interval evaluation. *)
module Ext : sig
  type t = NegInf | Fin of int | PosInf

  val add : t -> t -> t
  val mul : t -> t -> t
  val min : t -> t -> t
  val max : t -> t -> t
  val ge0 : t -> bool
  val pp : Format.formatter -> t -> unit
end

type t
(** A proof context: equality rewrites [v := p] plus per-variable
    inclusive bounds (themselves polynomials).  A context caches its
    memo identity (see the memoization section below), so polymorphic
    [=], [compare] and [Hashtbl.hash] on [t] (or on values holding one,
    such as a program) are not meaningful: use {!equal}. *)

val empty : t

val equal : t -> t -> bool
(** Same recorded facts: equal rewrite rules and bounds, polynomials
    compared by normal form.  The memo identity plays no part. *)

val add_eq : t -> string -> Poly.t -> t
(** [add_eq ctx v p] records the rewrite [v := p]; e.g. the NW proof of
    Fig. 9 records [n := q*b + 1].  Existing facts are normalized with
    the new rule.  @raise Invalid_argument if [p] mentions [v]. *)

val add_range : t -> string -> ?lo:Poly.t -> ?hi:Poly.t -> unit -> t
(** Record inclusive bounds for a variable; bounds may be symbolic
    (e.g. a loop index [i] with [hi = q - 1]). *)

val add_lo : t -> string -> Poly.t -> t
val add_hi : t -> string -> Poly.t -> t

val equalities : t -> (string * Poly.t) list
(** The recorded rewrite rules [v := p], in variable order.  Used by the
    certificate checker's concretizer to build admissible assignments
    without re-deriving the context. *)

val var_bounds : t -> (string * Poly.t option * Poly.t option) list
(** The recorded inclusive per-variable bounds [(v, lo, hi)], in
    variable order; [None] for an unconstrained end. *)

val rewrite : t -> Poly.t -> Poly.t
(** Normalize a polynomial with the context's equality rules. *)

val interval : t -> Poly.t -> Ext.t * Ext.t
(** Best-effort inclusive interval for the polynomial's value. *)

val prove_nonneg : t -> Poly.t -> bool
(** Entry point of the elimination search.  Before searching, the
    context is {e saturated} with triangular-bound consequences: a
    recorded pair [lo <= v <= hi] implies [hi - lo >= 0], and when
    another variable occurs with a unit coefficient in that gap the
    implication is itself a bound on it (from [0 <= j <= i - 1] and
    [i <= m - 1] follow [i >= 1] and [m >= 2]).  This is what lets
    obligations over triangular iteration spaces - LUD's interior
    write-race disjointness - go through. *)

val prove_pos : t -> Poly.t -> bool
val prove_le : t -> Poly.t -> Poly.t -> bool
val prove_lt : t -> Poly.t -> Poly.t -> bool
val prove_ge : t -> Poly.t -> Poly.t -> bool
val prove_gt : t -> Poly.t -> Poly.t -> bool

val prove_eq : t -> Poly.t -> Poly.t -> bool
(** Decided by normal-form identity after rewriting (sound and, for
    polynomial identities under the recorded equalities, complete). *)

val prove_nonzero : t -> Poly.t -> bool

(** {1 Footprint-in-bounds queries}

    Used by the memory-IR linter ({!Core.Memlint}) to discharge the
    obligation that an index function's footprint stays inside its
    memory block. *)

val prove_in_range : t -> Poly.t -> lo:Poly.t -> hi:Poly.t -> bool
(** [prove_in_range ctx p ~lo ~hi] proves [lo <= p <= hi] (inclusive on
    both ends); sufficient-condition semantics like every [prove_*]. *)

(** Three-valued range verdict: [Out_of_range] is itself a {e proof}
    (of [p < lo] or [p > hi]), not merely a failure to prove
    membership. *)
type range_verdict = In_range | Out_of_range | Undecided

val check_in_range : t -> Poly.t -> lo:Poly.t -> hi:Poly.t -> range_verdict

(** Decidable-sign summary. *)
type sign = Pos | Neg | Zero | Unknown

val sign : t -> Poly.t -> sign
val pp : Format.formatter -> t -> unit

(** {1 Memoization limits and statistics}

    The prover keeps two memo tables: saturated contexts and decided
    nonnegativity obligations, the latter keyed by the full proof state
    [(context, depth, shifted variables, polynomial)].  Both key the
    context by an {e interned id}: on its first memo use a context is
    hashed deeply and looked up by structural comparison in an intern
    table, and the id found or issued is cached on the value, so later
    lookups hash and compare one int.  Identity follows content: two
    contexts built by the same steps get the same id wherever they were
    built, so memo entries are shared across passes.  (Contexts with
    equal facts built in a different order may get different ids: a
    missed hit, never a wrong answer.)

    When a table outgrows its cap, the two memos and the intern table
    are flushed together (bounded residency beats an eviction policy
    for the bursty obligation streams the pipeline produces).  Ids are
    never reused, and a flush starts a new generation: an id cached
    before it is stale and its context is interned afresh, so it can
    neither match another context nor split one content into two live
    ids.  Ids are never printed or iterated. *)

type limits = { sat_cap : int; nonneg_cap : int }
(** The intern table holds at most [sat_cap + nonneg_cap] contexts (the
    nonneg cap as overridden by {!budget}[.b_memo]); overflowing it is
    counted as a nonneg reset. *)

val default_limits : limits
(** [{ sat_cap = 50_000; nonneg_cap = 500_000 }] - the former
    hard-coded reset thresholds. *)

val set_limits : limits -> unit
val get_limits : unit -> limits

(** {1 Resource budgets}

    Proof work is bounded by counting steps - elimination searches,
    i.e. nonneg memo misses - never by a clock, so a verdict depends on
    the queries alone and not on machine speed.  Steps are spent from a
    {e scope}: one {!bounded} call, or else one public [prove_*] query.

    A process-wide prover budget (CLI [--prover-budget]): [b_steps]
    caps the steps of any one scope ([-1] = unlimited; [0] refuses
    every query outright, so {e every} obligation comes back
    unproved); [b_memo] overrides the nonneg memo cap when
    nonnegative.  Exhaustion is sound - the query answers "not
    proved", the caller skips the rewrite - and is counted once per
    affected query in [stats ()].[budget_exhausted]. *)
type budget = { b_steps : int; b_memo : int }

val unlimited : budget
val set_budget : budget -> unit
val get_budget : unit -> budget

val bounded : int -> (unit -> 'a) -> 'a
(** [bounded n f] runs [f] as one scope of [min n b_steps] steps
    (a negative bound is unlimited), shared by every query [f] makes.
    The outermost scope wins: a nested [bounded] call neither re-arms
    nor extends it.  [Lmads.Nonoverlap.disjoint] runs each call in
    one scope. *)

(** Cache effectiveness counters (process-wide, monotone until
    {!reset_stats}): a miss is a full saturation / elimination search,
    a reset discards the accumulated table. *)
type stats = {
  mutable sat_hits : int;
  mutable sat_misses : int;
  mutable sat_resets : int;
  mutable nonneg_hits : int;
  mutable nonneg_misses : int;
  mutable nonneg_resets : int;
  mutable budget_exhausted : int;
      (** Queries truncated by the step budget. *)
}

val stats : unit -> stats
(** A snapshot copy; safe to retain across further proving. *)

val reset_stats : unit -> unit
val pp_stats : Format.formatter -> stats -> unit
