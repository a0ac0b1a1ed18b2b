(** Execute a schedule on the deterministic simulator and evaluate the
    property oracles.

    The cluster is built from the schedule header (f, c, clients,
    window, topology, acks, protocol mutation); each step is applied at
    its virtual time via [Engine.schedule], outside any node's CPU
    accounting. Runs with a protocol mutation disable the runtime
    sanitizer so the oracles — not the in-replica assertions — observe
    the divergence; a [Sanitizer.Violation] on unmutated runs is caught
    and reported as the sanitizer oracle's verdict. *)

type outcome = {
  sched : Schedule.t;
  verdicts : Oracle.verdict list;
  failed : Oracle.verdict option;  (** first failing oracle, if any *)
  completed : int;  (** client requests completed across the cluster *)
  events : int;  (** simulator events executed (determinism witness) *)
}

val run : Schedule.t -> outcome

val meets_expectation : outcome -> (unit, string) result
(** Check the outcome against the schedule's [expect] header: corpus
    replays use this so a committed counterexample must keep failing on
    the recorded oracle, and a healthy schedule must keep passing. *)

val fails_on : Schedule.t -> oracle:string -> bool
(** [fails_on sched ~oracle] reruns [sched] and reports whether it still
    fails on [oracle] — the predicate shrinking preserves. *)
