(* CLI driver for the schedule fuzzer: generate → run → shrink, plus
   corpus replay.  All output is derived from schedule contents and
   verdicts only (no wall-clock, no paths that vary run to run), so a
   fixed seed produces byte-identical output — the determinism gate in
   CI diffs two runs. *)

let verdict_string (outcome : Runner.outcome) =
  match outcome.Runner.failed with
  | None -> "pass"
  | Some v -> Printf.sprintf "fail:%s" v.Oracle.name

let ensure_dir dir = if not (Sys.file_exists dir) then Sys.mkdir dir 0o755

let report outcome =
  Printf.printf "check %-24s seed=%Ld steps=%d verdict=%s completed=%d events=%d\n%!"
    outcome.Runner.sched.Schedule.name outcome.Runner.sched.Schedule.seed
    (List.length outcome.Runner.sched.Schedule.steps)
    (verdict_string outcome) outcome.Runner.completed outcome.Runner.events;
  (match outcome.Runner.failed with
  | Some v -> Printf.printf "  %s: %s\n%!" v.Oracle.name v.Oracle.detail
  | None -> ())

(* Shrink a failing schedule and persist the minimal artifact. *)
let shrink_and_save ~out_dir outcome =
  match outcome.Runner.failed with
  | None -> None
  | Some v ->
      let oracle = v.Oracle.name in
      let minimal = Shrink.minimize ~oracle outcome.Runner.sched in
      ensure_dir out_dir;
      let path = Filename.concat out_dir (minimal.Schedule.name ^ ".schedule") in
      Schedule.save ~path minimal;
      Printf.printf "  shrunk to %d steps, %d clients x %d reqs -> %s\n%!"
        (List.length minimal.Schedule.steps) minimal.Schedule.clients minimal.Schedule.requests path;
      Some (minimal, path)

type fuzz_result = {
  ran : int;
  failures : (Schedule.t * Schedule.t) list;  (** (original, shrunk) *)
  expectation_errors : (string * string) list;  (** (name, error) *)
}

(* Run [seeds] generated schedules; every failure is ddmin-shrunk and
   the minimal [.schedule] artifact saved under [out_dir].  A mutate run
   draws every schedule from [Gen.generate_mutation]. *)
let fuzz ~seeds ~quick ~mutate ~adversarial ~seed ~out_dir ~budget_s =
  let profile = { Gen.quick; adversarial } in
  let failures = ref [] in
  let expectation_errors = ref [] in
  let ran = ref 0 in
  let started = Sys.time () in
  (* With a budget, `seeds` becomes an upper bound and the loop stops
     once the CPU-time budget is spent.  Each individual schedule is
     still derived purely from (seed, index), so any finding replays
     exactly; only the number of schedules visited is host-dependent,
     which is why the CI determinism gate never passes a budget. *)
  let within_budget () =
    match budget_s with None -> true | Some b -> Sys.time () -. started < b
  in
  let index = ref 0 in
  while !index < seeds && within_budget () do
    let sched =
      if mutate then Gen.generate_mutation ~seed !index
      else Gen.generate ~profile ~seed !index
    in
    let outcome = Runner.run sched in
    report outcome;
    (match Runner.meets_expectation outcome with
    | Ok () -> ()
    | Error e ->
        Printf.printf "  EXPECTATION VIOLATED: %s\n%!" e;
        expectation_errors := (sched.Schedule.name, e) :: !expectation_errors);
    (match shrink_and_save ~out_dir outcome with
    | Some (minimal, _) -> failures := (sched, minimal) :: !failures
    | None -> ());
    incr ran;
    incr index
  done;
  { ran = !ran; failures = List.rev !failures; expectation_errors = List.rev !expectation_errors }

let replay_one path =
  match Schedule.load ~path with
  | Error e ->
      Printf.printf "replay %-40s PARSE ERROR: %s\n%!" (Filename.basename path) e;
      false
  | Ok sched -> (
      let outcome = Runner.run sched in
      match Runner.meets_expectation outcome with
      | Ok () ->
          Printf.printf "replay %-40s ok (%s)\n%!" (Filename.basename path) (verdict_string outcome);
          true
      | Error e ->
          Printf.printf "replay %-40s FAILED: %s\n%!" (Filename.basename path) e;
          false)

let replay_dir dir =
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".schedule")
    |> List.sort String.compare
    |> List.map (Filename.concat dir)
  in
  if List.length files = 0 then begin
    Printf.printf "no .schedule files in %s\n%!" dir;
    false
  end
  else List.for_all (fun ok -> ok) (List.map replay_one files)

(* ------------------------------------------------------------------ *)
(* Entry point (invoked as `bench/main.exe check ...`) *)

let usage () =
  print_string
    "usage: check [--seeds N] [--seed S] [--quick] [--mutate] [--adversarial] [--out DIR]\n\
    \             [--budget-s SECONDS]\n\
    \       check replay FILE.schedule...\n\
    \       check replay-dir DIR\n"

let main args =
  match args with
  | "replay" :: files ->
      if List.length files = 0 then (usage (); 2)
      else if List.for_all (fun ok -> ok) (List.map replay_one files) then 0
      else 1
  | [ "replay-dir"; dir ] -> if replay_dir dir then 0 else 1
  | _ ->
      let seeds = ref 50 in
      let seed = ref 1L in
      let quick = ref false in
      let mutate = ref false in
      let adversarial = ref false in
      let out_dir = ref "bench_out" in
      let budget_s = ref None in
      let bad = ref false in
      let rec parse = function
        | [] -> ()
        | "--seeds" :: n :: rest ->
            (match int_of_string_opt n with
            | Some n when n > 0 -> seeds := n
            | _ -> bad := true);
            parse rest
        | "--seed" :: s :: rest ->
            (match Int64.of_string_opt s with Some s -> seed := s | None -> bad := true);
            parse rest
        | "--quick" :: rest ->
            quick := true;
            parse rest
        | "--mutate" :: rest ->
            mutate := true;
            parse rest
        | "--adversarial" :: rest ->
            adversarial := true;
            parse rest
        | "--out" :: dir :: rest ->
            out_dir := dir;
            parse rest
        | "--budget-s" :: s :: rest ->
            (match float_of_string_opt s with
            | Some s when s > 0. -> budget_s := Some s
            | _ -> bad := true);
            parse rest
        | _ ->
            bad := true
      in
      parse args;
      if !bad then (usage (); 2)
      else begin
        let r =
          fuzz ~seeds:!seeds ~quick:!quick ~mutate:!mutate ~adversarial:!adversarial
            ~seed:!seed ~out_dir:!out_dir ~budget_s:!budget_s
        in
        Printf.printf "fuzz: %d schedules, %d failures, %d expectation errors\n%!" r.ran
          (List.length r.failures)
          (List.length r.expectation_errors);
        (* Mutated runs are *supposed* to fail (that is the mutation
           check); an unmutated failure or any expectation error is a
           finding. *)
        if !mutate then if List.length r.failures > 0 then 0 else 1
        else if List.length r.failures > 0 || List.length r.expectation_errors > 0 then 1
        else 0
      end
