(* Counterexample shrinking: greedy delta-debugging (ddmin) on the step
   list, then workload reduction.  The predicate preserved throughout is
   "the schedule still fails on the same oracle", so a shrunk artifact
   is a locally-minimal reproduction of the original violation: removing
   any single remaining step (or halving the workload again) makes the
   failure disappear. *)

let with_steps sched steps = { sched with Schedule.steps }

(* Remove complements at increasing granularity (Zeller & Hildebrandt's
   ddmin).  When granularity reaches [List.length steps], complements
   are single-step removals, so the result is 1-minimal with respect to
   [still_fails]. *)
let ddmin ~still_fails steps0 =
  let chunk lst n =
    (* n near-equal contiguous chunks *)
    let len = List.length lst in
    let base = len / n and extra = len mod n in
    let rec take k lst acc =
      if Int.equal k 0 then (List.rev acc, lst)
      else
        match lst with
        | [] -> (List.rev acc, [])
        | x :: rest -> take (k - 1) rest (x :: acc)
    in
    let rec go i lst acc =
      if Int.equal i n then List.rev acc
      else
        let size = base + if i < extra then 1 else 0 in
        let c, rest = take size lst [] in
        go (i + 1) rest (c :: acc)
    in
    go 0 lst []
  in
  let rec loop steps n =
    let len = List.length steps in
    if len <= 1 then steps
    else
      let chunks = chunk steps n in
      let complements = List.mapi (fun i _ -> List.concat (List.filteri (fun j _ -> not (Int.equal i j)) chunks)) chunks in
      match List.find_opt still_fails complements with
      | Some smaller ->
          (* restart at coarse granularity on the smaller input *)
          loop smaller (max 2 (n - 1))
      | None -> if n >= len then steps else loop steps (min len (2 * n))
  in
  match steps0 with [] -> [] | steps -> loop steps 2

let ddmin_steps ~oracle sched =
  let still_fails steps = Runner.fails_on (with_steps sched steps) ~oracle in
  with_steps sched (ddmin ~still_fails sched.Schedule.steps)

(* The one halving loop: move to [smaller sched] while the failure
   persists, and stop at the first candidate that passes or when
   [smaller] has none. *)
let shrink_while ~oracle smaller sched =
  let rec loop sched =
    match smaller sched with
    | Some candidate when Runner.fails_on candidate ~oracle -> loop candidate
    | _ -> sched
  in
  loop sched

let fewer_requests (s : Schedule.t) =
  let requests = s.Schedule.requests / 2 in
  if requests < 1 then None else Some { s with Schedule.requests }

let fewer_clients (s : Schedule.t) =
  let clients = s.Schedule.clients - 1 in
  if clients < 1 then None else Some { s with Schedule.clients }

(* The adaptive adversary shrinks along its two extra axes: the action
   budget (how often the policy may react) and the observation horizon
   (how long it watches).  A final probe tries dropping the adversary
   outright — many failures blamed on the policy turn out to be
   static-schedule bugs, and the minimal artifact should say so. *)
let adversary_pass shrink (s : Schedule.t) =
  Option.bind s.Schedule.adversary (fun a ->
      Option.map (fun a -> { s with Schedule.adversary = Some a }) (shrink a))

let smaller_budget =
  adversary_pass (fun (a : Schedule.adversary) ->
      if a.Schedule.budget > 0 then Some { a with Schedule.budget = a.Schedule.budget / 2 }
      else None)

let shorter_horizon =
  adversary_pass (fun (a : Schedule.adversary) ->
      let span = a.Schedule.until_ms - a.Schedule.from_ms in
      if span > 0 then Some { a with Schedule.until_ms = a.Schedule.from_ms + (span / 2) }
      else None)

let without_adversary (s : Schedule.t) =
  Option.map (fun _ -> { s with Schedule.adversary = None }) s.Schedule.adversary

(* [minimize ~oracle sched] assumes [sched] currently fails on [oracle]
   and returns a locally minimal schedule that still does, renamed and
   re-expected so it can be committed to the corpus as-is.

   Workload halving runs BEFORE step-ddmin: every ddmin probe replays
   the whole schedule, so at n ≥ 20 replicas an un-shrunk closed-loop
   workload multiplied across ddmin's O(steps²) worst-case probes makes
   shrinking slow.  Requests/clients shrink in a handful of
   cheap halving runs and every subsequent probe inherits the smaller
   workload; a second requests pass after ddmin catches reductions the
   full step list was blocking. *)
let minimize ~oracle sched =
  let sched =
    List.fold_left
      (fun sched smaller -> shrink_while ~oracle smaller sched)
      sched
      [ fewer_requests; fewer_clients; smaller_budget; shorter_horizon; without_adversary ]
  in
  let sched = shrink_while ~oracle fewer_requests (ddmin_steps ~oracle sched) in
  {
    sched with
    Schedule.name = sched.Schedule.name ^ "-shrunk";
    expect = Schedule.Expect_fail oracle;
  }
