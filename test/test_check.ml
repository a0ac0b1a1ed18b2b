(* The schedule fuzzer's own test suite:

   - DSL codec: parse ∘ emit is the identity, emit ∘ parse ∘ emit is
     byte-identical, and random schedules round-trip (QCheck).
   - Determinism: running the same schedule twice gives identical
     verdicts and event counts.
   - Shrinking: ddmin produces a 1-minimal step list.
   - Mutation check: with the weak-sigma quorum weakening enabled the
     agreement oracle must detect a violation within a bounded number of
     seeded schedules, and the shrunk counterexample stays small
     (≤ 10 steps) — this is the evidence that the oracle catches real
     safety bugs rather than vacuously passing.
   - Corpus: every committed .schedule replays with its expected
     verdict (the dune deps glob makes these runs part of `dune
     runtest`). *)

open Sbft_check

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* DSL codec *)

let sample_schedule =
  {
    (Schedule.default ~name:"sample" ~seed:7L) with
    Schedule.f = 1;
    c = 1;
    clients = 2;
    requests = 6;
    topology = `Continent;
    acks = false;
    wal = false;
    mutation = Some Sbft_core.Config.Weak_sigma_quorum;
    gst_ms = Some 15_000;
    horizon_ms = 60_000;
    expect = Schedule.Expect_fail "agreement";
    steps =
      [
        { Schedule.at_ms = 1_000; action = Schedule.Crash 3 };
        { Schedule.at_ms = 1_200; action = Schedule.Crash_amnesia 1 };
        { Schedule.at_ms = 1_500; action = Schedule.Partition [ [ 0; 1; 2 ]; [ 3; 4; 5 ] ] };
        { Schedule.at_ms = 2_000; action = Schedule.Set_drop 0.25 };
        { Schedule.at_ms = 2_500; action = Schedule.Delay_link { src = 0; dst = 4; delay_ms = 120 } };
        { Schedule.at_ms = 3_000; action = Schedule.Isolate 2 };
        { Schedule.at_ms = 9_000; action = Schedule.Byzantine (0, Sbft_core.Replica.Equivocating_primary) };
        { Schedule.at_ms = 15_000; action = Schedule.Heal };
        { Schedule.at_ms = 15_000; action = Schedule.Reconnect 2 };
        { Schedule.at_ms = 15_000; action = Schedule.Recover 3 };
        { Schedule.at_ms = 15_000; action = Schedule.Byzantine (0, Sbft_core.Replica.Honest) };
      ];
  }

let test_roundtrip () =
  let text = Schedule.to_string sample_schedule in
  match Schedule.parse text with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok parsed ->
      check_str "byte-identical re-emission" text (Schedule.to_string parsed);
      check_int "steps survive" (List.length sample_schedule.Schedule.steps)
        (List.length parsed.Schedule.steps);
      check "gst survives" true (parsed.Schedule.gst_ms = Some 15_000);
      check "mutation survives" true
        (match parsed.Schedule.mutation with Some Sbft_core.Config.Weak_sigma_quorum -> true | _ -> false);
      (* Golden text pins every byz, mutation and topology keyword, so a
         renamed keyword fails here even though it would round-trip. *)
      let golden ~topology ~mutation steps =
        String.concat "\n"
          ([ "sbft-schedule v1"; "name kw"; "seed 1"; "f 1"; "c 0"; "clients 2";
             "requests 4"; "win 8"; "topology " ^ topology; "acks on"; "wal on";
             "rejoin conservative"; "mutation " ^ mutation; "gst none"; "horizon 30000" ]
          @ steps @ [ "end"; "" ])
      in
      let base = Schedule.default ~name:"kw" ~seed:1L in
      let pins what sched text =
        check_str (what ^ " emitted") text (Schedule.to_string sched);
        match Schedule.parse text with
        | Ok p -> check_str (what ^ " parsed") text (Schedule.to_string p)
        | Error e -> Alcotest.failf "%s: %s" what e
      in
      let byz =
        Sbft_core.Replica.
          [ (Equivocating_primary, "equivocate"); (Silent, "silent");
            (Corrupt_shares, "corrupt-shares"); (Wrong_exec_digest, "wrong-exec-digest");
            (Stale_view_change, "stale-vc"); (Honest, "honest") ]
      in
      pins "byz flavours"
        { base with
          Schedule.steps =
            List.mapi
              (fun i (b, _) -> { Schedule.at_ms = 100 * (i + 1); action = Schedule.Byzantine (i, b) })
              byz }
        (golden ~topology:"lan" ~mutation:"none"
           (List.mapi (fun i (_, kw) -> Printf.sprintf "step %d byz %d %s" (100 * (i + 1)) i kw) byz));
      List.iter
        (fun (mutation, kw) ->
          pins kw { base with Schedule.mutation } (golden ~topology:"lan" ~mutation:kw []))
        Sbft_core.Config.
          [ (None, "none"); (Some Weak_sigma_quorum, "weak-sigma");
            (Some Weak_tau_quorum, "weak-tau"); (Some Weak_vc_quorum, "weak-vc") ];
      List.iter
        (fun (topology, kw) ->
          pins kw { base with Schedule.topology } (golden ~topology:kw ~mutation:"none" []))
        [ (`Lan, "lan"); (`Continent, "continent"); (`World, "world") ]

let test_parse_rejects () =
  let reject what text =
    match Schedule.parse text with
    | Ok _ -> Alcotest.failf "%s unexpectedly parsed" what
    | Error _ -> ()
  in
  reject "empty" "";
  reject "wrong header" "sbft-schedule v2\nend\n";
  reject "missing end" "sbft-schedule v1\nname x\n";
  reject "bad action" "sbft-schedule v1\nstep 100 explode 3\nend\n";
  reject "bad drop" "sbft-schedule v1\nstep 100 drop 1.5\nend\n";
  reject "bad topology" "sbft-schedule v1\ntopology moon\nend\n";
  reject "zero clients" "sbft-schedule v1\nclients 0\nend\n"

let test_parse_comments_and_whitespace () =
  let text =
    "# a comment\nsbft-schedule v1\n\nname c\n  seed 3\nstep 10 heal\nend\n# trailing\n"
  in
  match Schedule.parse text with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok t ->
      check_str "name" "c" t.Schedule.name;
      check "seed" true (Int64.equal t.Schedule.seed 3L);
      check_int "steps" 1 (List.length t.Schedule.steps)

let qtest name count gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen prop)

let prop_generated_roundtrip =
  qtest "generated schedules round-trip byte-identically" 30
    QCheck2.Gen.(int_range 0 100_000)
    (fun index ->
      let sched = Gen.generate ~seed:0xC0DECL index in
      let text = Schedule.to_string sched in
      match Schedule.parse text with
      | Error e -> QCheck2.Test.fail_reportf "parse failed: %s\n%s" e text
      | Ok parsed -> String.equal text (Schedule.to_string parsed))

let prop_adversarial_roundtrip =
  (* Same identity, but over schedules carrying the adaptive-adversary
     header and the gray-failure / rollback actions the adversarial
     profile generates. *)
  qtest "adversarial schedules round-trip byte-identically" 30
    QCheck2.Gen.(int_range 0 100_000)
    (fun index ->
      let sched =
        Gen.generate
          ~profile:{ Gen.default_profile with Gen.adversarial = true }
          ~seed:0xADC0DEL index
      in
      let text = Schedule.to_string sched in
      match Schedule.parse text with
      | Error e -> QCheck2.Test.fail_reportf "parse failed: %s\n%s" e text
      | Ok parsed -> String.equal text (Schedule.to_string parsed))

let prop_generator_respects_fault_budget =
  (* The safety proofs assume at most f replicas ever misbehave; the
     generator must respect that across BOTH channels — static
     [Byzantine] steps and the adaptive adversary's colluder pool — or
     a failing oracle could be an over-budget adversary rather than a
     protocol bug. *)
  qtest "generated adversaries stay within the f budget" 40
    QCheck2.Gen.(int_range 0 100_000)
    (fun index ->
      let sched =
        Gen.generate
          ~profile:{ Gen.default_profile with Gen.adversarial = true }
          ~seed:0xB00DAL index
      in
      let n = Schedule.num_replicas sched in
      let static =
        List.filter_map
          (fun (st : Schedule.step) ->
            match st.Schedule.action with
            | Schedule.Byzantine (node, b)
              when not (match b with Sbft_core.Replica.Honest -> true | _ -> false) ->
                Some node
            | _ -> None)
          sched.Schedule.steps
      in
      let pool =
        match sched.Schedule.adversary with None -> [] | Some a -> a.Schedule.pool
      in
      let suspects = List.sort_uniq Int.compare (static @ pool) in
      List.length suspects <= sched.Schedule.f
      && List.for_all (fun p -> p >= 0 && p < n) suspects
      &&
      match sched.Schedule.adversary with
      | None -> true
      | Some a ->
          a.Schedule.budget >= 0 && a.Schedule.every_ms >= 1
          && a.Schedule.until_ms >= a.Schedule.from_ms)

let prop_ddmin_one_minimal =
  (* Pure ddmin property: for a random monotone predicate ("the list
     still contains this target subset") the result must still fail and
     be 1-minimal — removing any single surviving step passes. *)
  qtest "ddmin output is 1-minimal and still failing" 50
    QCheck2.Gen.(pair (int_range 1 24) (int_range 0 0xFFF))
    (fun (len, mask) ->
      let steps =
        List.init len (fun i -> { Schedule.at_ms = 100 * (i + 1); action = Schedule.Crash i })
      in
      let in_target i = (mask lsr (i mod 12)) land 1 = 1 in
      let target =
        match List.filteri (fun i _ -> in_target i) steps with
        | [] -> [ List.hd steps ]
        | t -> t
      in
      let still_fails candidate =
        List.for_all (fun t -> List.mem t candidate) target
      in
      let minimal = Shrink.ddmin ~still_fails steps in
      still_fails minimal
      && List.for_all
           (fun i -> not (still_fails (List.filteri (fun j _ -> not (Int.equal i j)) minimal)))
           (List.init (List.length minimal) Fun.id))

(* ------------------------------------------------------------------ *)
(* Determinism *)

let test_run_deterministic () =
  let sched = Gen.generate ~profile:{ Gen.default_profile with quick = true } ~seed:0xDE7L 3 in
  let a = Runner.run sched and b = Runner.run sched in
  check_int "events equal" a.Runner.events b.Runner.events;
  check_int "completed equal" a.Runner.completed b.Runner.completed;
  check "verdicts equal" true
    (List.equal
       (fun (x : Oracle.verdict) (y : Oracle.verdict) ->
         String.equal x.Oracle.name y.Oracle.name
         && Bool.equal x.Oracle.pass y.Oracle.pass
         && String.equal x.Oracle.detail y.Oracle.detail)
       a.Runner.verdicts b.Runner.verdicts)

(* ------------------------------------------------------------------ *)
(* Shrinking *)

let test_ddmin_minimal () =
  (* Pure predicate: "fails" iff the list still contains both Crash 0
     and Crash 5 — ddmin must strip the six decoys and keep exactly
     those two, in order. *)
  let mk n = { Schedule.at_ms = 100 * (n + 1); action = Schedule.Crash n } in
  let has n s = List.exists (fun (st : Schedule.step) -> st.Schedule.action = Schedule.Crash n) s in
  let still_fails s = has 0 s && has 5 s in
  let minimal = Shrink.ddmin ~still_fails (List.init 8 mk) in
  check_int "two steps survive" 2 (List.length minimal);
  check "crash 0 kept" true (has 0 minimal);
  check "crash 5 kept" true (has 5 minimal);
  (* 1-minimality: removing either remaining step breaks the predicate. *)
  List.iteri
    (fun i _ ->
      check "removing any survivor breaks it" false
        (still_fails (List.filteri (fun j _ -> not (Int.equal i j)) minimal)))
    minimal;
  (* Degenerate inputs *)
  check_int "empty input" 0 (List.length (Shrink.ddmin ~still_fails:(fun _ -> true) []));
  check_int "singleton input" 1
    (List.length (Shrink.ddmin ~still_fails:(fun s -> List.length s > 0) [ mk 0 ]))

(* ------------------------------------------------------------------ *)
(* Mutation check: the oracle must catch a genuinely weakened protocol *)

let find_mutation_failure ~max_seeds =
  let rec go index =
    if index >= max_seeds then None
    else
      let sched = Gen.generate_mutation ~seed:1L index in
      let outcome = Runner.run sched in
      match outcome.Runner.failed with
      | Some v when String.equal v.Oracle.name "agreement" -> Some (sched, outcome)
      | _ -> go (index + 1)
  in
  go 0

let test_mutation_detected () =
  match find_mutation_failure ~max_seeds:10 with
  | None ->
      Alcotest.fail
        "agreement oracle failed to detect the weak-sigma mutation within 10 seeded schedules"
  | Some (sched, _) -> (
      let minimal = Shrink.minimize ~oracle:"agreement" sched in
      check "shrunk schedule still fails agreement" true
        (Runner.fails_on minimal ~oracle:"agreement");
      check "shrunk schedule is small (<= 10 steps)" true
        (List.length minimal.Schedule.steps <= 10);
      (* 1-minimality: removing any single remaining step loses the
         violation-or-keeps-it; it must never crash, and the artifact
         replays from its serialized form. *)
      match Schedule.parse (Schedule.to_string minimal) with
      | Error e -> Alcotest.failf "shrunk artifact does not re-parse: %s" e
      | Ok reparsed ->
          check "reparsed artifact still fails" true
            (Runner.fails_on reparsed ~oracle:"agreement"))

let test_unmutated_baseline_passes () =
  (* The same schedule with the mutation switched off must pass: the
     violation comes from the weakened quorum, not from the schedule. *)
  match find_mutation_failure ~max_seeds:10 with
  | None -> Alcotest.fail "no mutation failure found"
  | Some (sched, _) -> (
      let healthy = { sched with Schedule.mutation = None } in
      let outcome = Runner.run healthy in
      match outcome.Runner.failed with
      | Some v ->
          Alcotest.failf "unmutated run failed %s: %s" v.Oracle.name v.Oracle.detail
      | None -> ())

(* ------------------------------------------------------------------ *)
(* Corpus replay (runs under `dune runtest` via the deps glob) *)

let corpus_dir = "corpus"

let corpus_tests () =
  let files =
    if Sys.file_exists corpus_dir && Sys.is_directory corpus_dir then
      Sys.readdir corpus_dir |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".schedule")
      |> List.sort String.compare
    else []
  in
  if List.length files = 0 then
    [ Alcotest.test_case "corpus present" `Quick (fun () -> Alcotest.fail "test/corpus is empty") ]
  else
    List.map
      (fun file ->
        Alcotest.test_case file `Slow (fun () ->
            match Schedule.load ~path:(Filename.concat corpus_dir file) with
            | Error e -> Alcotest.failf "cannot load %s: %s" file e
            | Ok sched -> (
                (* Committed artifacts must be in canonical form so a
                   diff against a freshly shrunk artifact is meaningful. *)
                let outcome = Runner.run sched in
                match Runner.meets_expectation outcome with
                | Ok () -> ()
                | Error e -> Alcotest.failf "%s: %s" file e)))
      files

let () =
  Alcotest.run "sbft_check"
    [
      ( "schedule-dsl",
        [
          Alcotest.test_case "roundtrip" `Quick test_roundtrip;
          Alcotest.test_case "rejects malformed" `Quick test_parse_rejects;
          Alcotest.test_case "comments and whitespace" `Quick test_parse_comments_and_whitespace;
          prop_generated_roundtrip;
          prop_adversarial_roundtrip;
          prop_generator_respects_fault_budget;
        ] );
      ("determinism", [ Alcotest.test_case "same schedule, same run" `Quick test_run_deterministic ]);
      ( "shrink",
        [
          Alcotest.test_case "ddmin predicate sanity" `Quick test_ddmin_minimal;
          prop_ddmin_one_minimal;
        ] );
      ( "mutation-check",
        [
          Alcotest.test_case "weak-sigma detected and shrunk" `Slow test_mutation_detected;
          Alcotest.test_case "unmutated baseline passes" `Slow test_unmutated_baseline_passes;
        ] );
      ("corpus", corpus_tests ());
    ]
