(** Structured fault taxonomy for the fail-safe pipeline.

    The optimizations of the paper are only safe to deploy when an
    optimization that cannot be justified is {e skipped}, never
    {e shipped}: a pass that crashes, a lint report that errors, a
    certificate the independent checker refutes, or an executor that
    runs out of device memory must degrade the run to a
    less-optimized-but-correct variant instead of aborting it.  This
    module is the shared vocabulary of that policy: one variant per
    failure class, each carrying enough payload to {e blame} the layer
    that failed, raised as {!exception-Fault} at the failure site and
    contained by {!Pipeline.compile}[ ~fail_safe:true] or the
    executor's own degradation path (see docs/ROBUSTNESS.md). *)

type t =
  | Prover_budget of { exhausted : int }
      (** The symbolic prover hit its step budget [exhausted]
          times during a compile: the affected obligations came back
          undecided and their rewrites were skipped - a performance
          fault, never a correctness one. *)
  | Pass_crash of { pass : string; exn : string }
      (** An optimization pass raised an unexpected exception
          (printed in [exn]); its output is untrusted and discarded. *)
  | Lint_reject of { pass : string; violation : string }
      (** The memory linter found a violation in [pass]'s output. *)
  | Cert_refuted of { pass : string; obligation : string }
      (** The independent certificate checker refuted one of [pass]'s
          proof obligations. *)
  | Device_oom of { bytes : float; at_alloc : int }
      (** The simulated device refused allocation number [at_alloc]
          of [bytes] bytes. *)
  | Pool_cap of { bytes : float; cap : float }
      (** A strict-capped pool could not serve [bytes] of live memory
          under its [cap] even after evicting every cached block. *)
  | Internal of { where : string; detail : string }
      (** A broken invariant inside [where] - the replacement for the
          bare [assert false]/[failwith] sites this taxonomy retired. *)

exception Fault of t

val fail : t -> 'a
(** [fail f] raises [Fault f]. *)

val internal : where:string -> ('a, Format.formatter, unit, 'b) format4 -> 'a
(** [internal ~where fmt ...] raises an {!Internal} fault; drop-in
    replacement for [failwith]/[assert false] at invariant sites. *)

val blame : t -> string
(** The blamed layer or pass: the pass name for pass-attributed
    faults, ["prover"], ["device"], ["pool"], or the [where] of an
    internal fault. *)

val layer : t -> string
(** The taxonomy class as a stable lowercase tag:
    ["prover-budget" | "pass-crash" | "lint-reject" | "cert-refuted" |
     "device-oom" | "pool-cap" | "internal"]. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

