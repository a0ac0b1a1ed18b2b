(** Counterexample shrinking: greedy delta-debugging (ddmin) on the
    step list, then workload reduction, preserving "still fails on the
    same oracle" throughout. *)

val ddmin :
  still_fails:(Schedule.step list -> bool) ->
  Schedule.step list ->
  Schedule.step list
(** Zeller & Hildebrandt's ddmin: remove complements at doubling
    granularity. The result is 1-minimal with respect to [still_fails]:
    removing any single remaining step makes the predicate false.
    Exposed with a pure predicate so the algorithm is testable without
    running the simulator. *)

val minimize : oracle:string -> Schedule.t -> Schedule.t
(** [minimize ~oracle sched] assumes [sched] currently fails on
    [oracle] and returns a locally minimal schedule that still does,
    renamed ["-shrunk"] and re-expected to [Expect_fail oracle] so it
    can be committed to the corpus as-is.

    Pass order: workload halving (requests, then clients) runs FIRST so
    every subsequent ddmin probe replays the cheapest workload that
    still reproduces — un-shrunk workloads multiplied across ddmin's
    probe count are what made shrinking slow at n ≥ 20.  The adaptive
    adversary (if any) then shrinks along its own axes — action budget
    halving, observation-horizon halving, and a drop-it-entirely probe
    (a failure that persists without the adversary is a static bug and
    the artifact should say so) — before step-ddmin and a final
    requests pass. *)
