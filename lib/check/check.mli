(** CLI driver for the schedule fuzzer (invoked as
    [bench/main.exe check ...]): generate → run → shrink, plus corpus
    replay. All output derives from schedule contents and verdicts only,
    so a fixed seed produces byte-identical output — CI diffs two
    runs. *)

val main : string list -> int
(** The [check] subcommand: fuzz flags [--seeds N] (default 50)
    [--seed S] [--quick] [--mutate] [--adversarial] [--out DIR]
    (default [bench_out]) [--budget-s SECONDS], or [replay FILE...] /
    [replay-dir DIR].  Every failure is ddmin-shrunk and the minimal
    [.schedule] artifact saved under the [--out] directory.
    [--adversarial] attaches a random adaptive-adversary header to
    every schedule ({!Gen.profile}).  [--budget-s] caps the loop by CPU
    time: [--seeds] becomes an upper bound and the run stops at the
    budget.  Each schedule still derives purely from [(seed, index)],
    so findings replay exactly; only the number of schedules visited
    is host-dependent.
    Returns the exit code: 0 ok, 1 findings, 2 usage. In [--mutate]
    mode the polarity flips: the run succeeds only if the oracles
    caught the mutation. *)
