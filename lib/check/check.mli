(** CLI driver for the schedule fuzzer (invoked as
    [bench/main.exe check ...]): generate → run → shrink, plus corpus
    replay. All output derives from schedule contents and verdicts only,
    so a fixed seed produces byte-identical output — CI diffs two
    runs. *)

type fuzz_result = {
  ran : int;
  failures : (Schedule.t * Schedule.t) list;  (** (original, shrunk) *)
  expectation_errors : (string * string) list;  (** (name, error) *)
}

val fuzz :
  ?seeds:int ->
  ?quick:bool ->
  ?mutate:bool ->
  ?adversarial:bool ->
  ?seed:int64 ->
  ?out_dir:string ->
  ?budget_s:float ->
  unit ->
  fuzz_result
(** Run [seeds] generated schedules; every failure is ddmin-shrunk and
    the minimal [.schedule] artifact saved under [out_dir] (default
    ["bench_out"]).  [adversarial] attaches a random adaptive-adversary
    header to every schedule ({!Gen.profile}).  [budget_s] caps the
    loop by CPU time: [seeds] becomes an upper bound and the run stops
    at the budget.  Each schedule still derives purely from
    [(seed, index)], so findings replay exactly; only the number of
    schedules visited is host-dependent. *)

val main : string list -> int
(** The [check] subcommand: fuzz flags [--seeds N] [--seed S] [--quick]
    [--mutate] [--adversarial] [--out DIR] [--budget-s SECONDS], or
    [replay FILE...] / [replay-dir DIR].
    Returns the exit code: 0 ok, 1 findings, 2 usage. In [--mutate]
    mode the polarity flips: the run succeeds only if the oracles
    caught the mutation. *)
