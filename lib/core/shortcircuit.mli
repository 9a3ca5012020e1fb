(** Array short-circuiting (section V): the paper's central
    optimization.

    At each circuit point - [let y\[W\] = b] with [b] lastly used, a
    [concat] of lastly-used operands (Fig. 4a), or the implicit write of
    a mapnest body result (Fig. 6b) - the pass attempts to rebase the
    candidate (and every variable in an alias relation with it,
    property 3) into the destination's memory block with the
    appropriately sliced index function, after verifying with the LMAD
    non-overlap test that no write through the rebased chain can touch a
    location the destination's memory still serves (property 4,
    section V-B).  Success only rewrites memory annotations; the
    executor then recognizes source = destination at the circuit point
    and skips the copy.

    Loops are handled per Fig. 5b (parameter, initializer and body
    result all rebased; cross-iteration safety via whole-loop unions or
    the refined [U^{>i}] check of Fig. 7b), ifs per Fig. 5a (each branch
    result circuited within its branch), and transitive chains per
    Fig. 6a (concat operands re-attempted against the rebased result;
    failed candidates are retried in a later round once other circuits
    have made progress). *)

type stats = {
  mutable candidates : int;  (** circuit points examined *)
  mutable succeeded : int;  (** candidates fully rebased *)
  mutable overlap_checks : int;  (** LMAD non-overlap queries issued *)
  mutable rebased_vars : int;  (** variables whose annotation changed *)
}

val fresh_stats : unit -> stats

val pp_stats : Format.formatter -> stats -> unit
(** Render the statistics as a titled key/value section
    (shared {!Report} style, surfaced by [repro table --verbose]). *)

type options = {
  verbose : bool;
      (** Trace circuit attempts and failure reasons to stderr. *)
  enable_refinement : bool;
      (** Ablation switch: the per-iteration ([U^{>i}] vs [W^i],
          Fig. 7b) and per-thread (mapnest) refinements of section V-B.
          Disabled, only the whole-loop/whole-nest union checks
          remain. *)
  split_depth : int;
      (** Ablation switch: recursion budget of the dimension-splitting
          heuristic in the non-overlap test (Fig. 8); 0 disables
          splitting. *)
}
(** Per-run configuration, threaded through the pass rather than held
    in mutable globals, so ablation and lint runs cannot leak state
    into each other. *)

val default_options : options
(** [{ verbose = false; enable_refinement = true; split_depth = 3 }] *)

val optimize :
  ?options:options ->
  ?rounds:int ->
  ?cert:Certify.recorder ->
  Ir.Ast.prog ->
  Ir.Ast.prog * stats
(** Run the pass over a memory-annotated program (in place: only [pmem]
    annotations are mutated), for [rounds] (default 2) fixpoint rounds
    (transitive chaining).  Returns the same program and the pass
    statistics.

    With [cert], every successful circuit emits its proof obligations -
    the last-use requirement, each incremental non-overlap check the
    rewrite relied on (with the prover context it was discharged
    under), and the final annotation of every rebased variable - for
    independent re-validation by {!Certify.check}.  Failed attempts
    leave no obligations: the claim buffer is rolled back together with
    the annotation table. *)
