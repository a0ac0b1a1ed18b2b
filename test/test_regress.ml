(* Tests for the benchmark regression harness: the Json encoder/parser,
   the report schema check, the exact comparator (virtual fields equal,
   allocation within one band, host time ungated), the determinism of
   the measured grid, and the grid against the committed baseline. *)

open Sbft_harness

let check = Alcotest.(check bool)
let check_str = Alcotest.(check string)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Report.Json *)

let test_json_roundtrip () =
  let open Report.Json in
  let v =
    Obj
      [
        ("schema", Str "sbft-bench-v1");
        ("ok", Bool true);
        ("nothing", Null);
        ("count", Num 42.);
        ("rate", Num 123.456789);
        ("tiny", Num 1.5e-9);
        ("escapes", Str "line\nbreak \"quoted\" back\\slash");
        ("items", Arr [ Num 1.; Str "two"; Bool false; Arr []; Obj [] ]);
      ]
  in
  match parse (to_string v) with
  | Error e -> Alcotest.fail ("round-trip parse failed: " ^ e)
  | Ok v' ->
      check "round-trip preserves the document" true (v = v');
      (* Accessors *)
      check "member hit" true (member "ok" v' = Some (Bool true));
      check "member miss" true (member "absent" v' = None);
      check "to_float" true
        (match member "rate" v' with
        | Some n -> to_float n = Some 123.456789
        | None -> false);
      check "to_str" true
        (match member "schema" v' with
        | Some s -> to_str s = Some "sbft-bench-v1"
        | None -> false)

(* JSON has no infinity or NaN; the emitter writes them as null, so
   its own parser (and any other) reads the document back. *)
let test_json_non_finite () =
  let open Report.Json in
  check "non-finite numbers parse back as null" true
    (parse (to_string (Obj [ ("ci95", Num infinity); ("x", Num nan) ]))
    = Ok (Obj [ ("ci95", Null); ("x", Null) ]));
  (* A one-seed sweep has no confidence interval: ci95 = infinity. *)
  let one_seed = { Regress.mean = 1.; ci95 = infinity } in
  let row =
    {
      Regress.sweep_name = "one-seed";
      seeds = 1;
      throughput = one_seed;
      p50_lat = one_seed;
      fast_frac = one_seed;
      wall_s = one_seed;
      ev_per_sec = one_seed;
    }
  in
  check "one-seed sweep report parses" true
    (Result.is_ok (parse (Regress.sweep_report_json [ row ])))

let test_json_parse_edges () =
  let open Report.Json in
  let ok s v = check ("parse " ^ s) true (parse s = Ok v) in
  ok "null" Null;
  ok "true" (Bool true);
  ok "-0.5e2" (Num (-50.));
  ok "[]" (Arr []);
  ok "{}" (Obj []);
  ok "\"a\\u0041b\"" (Str "aAb");
  ok " { \"a\" : [ 1 , 2 ] } " (Obj [ ("a", Arr [ Num 1.; Num 2. ]) ]);
  let bad s = check ("reject " ^ s) true (match parse s with Error _ -> true | Ok _ -> false) in
  bad "";
  bad "{";
  bad "[1,]";
  bad "{\"a\":}";
  bad "nul";
  bad "\"unterminated";
  bad "{} trailing"

(* ------------------------------------------------------------------ *)
(* Regress report serialization *)

let sample_entry =
  {
    Regress.name = "sbft-fast-optimistic";
    protocol = "sbft";
    n = 6;
    f = 1;
    c = 1;
    clients = 4;
    throughput_ops = 29227.4;
    p50_ms = 1.25;
    p99_ms = 2.5;
    fast_fraction = 1.0;
    crypto_us = [ ("combine", 1200.5); ("combined_verify", 900.) ];
    wall_ms = 850.;
    events = 120_000;
    events_per_sec = 141_000.;
    minor_words = 9.5e7;
  }

let sample_report entries = { Regress.schema = Regress.schema_id; entries }

(* A report as the gate reads a committed baseline: written, then
   parsed back. *)
let baseline_of entries =
  match Regress.of_json (Regress.to_json (sample_report entries)) with
  | Ok b -> b
  | Error e -> Alcotest.fail ("baseline parse failed: " ^ e)

let test_report_schema_check () =
  let r = sample_report [ sample_entry ] in
  let json = Regress.to_json r in
  let wrong = Str.replace_first (Str.regexp_string Regress.schema_id) "other-v9" json in
  check "foreign schema rejected" true
    (match Regress.of_json wrong with Error _ -> true | Ok _ -> false);
  check "non-JSON rejected" true
    (match Regress.of_json "not json" with Error _ -> true | Ok _ -> false);
  (* The same checks through a file. *)
  let path = Filename.temp_file "sbft_regress" ".json" in
  Regress.write ~path r;
  check "written report loads" true (Result.is_ok (Regress.load ~path));
  let oc = open_out path in
  output_string oc wrong;
  close_out oc;
  check "foreign schema rejected on load" true (Result.is_error (Regress.load ~path));
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* Comparator *)

let test_compare_host_fields () =
  let baseline = baseline_of [ sample_entry ] in
  (* Host time is not gated, and allocation drift inside its band
     passes. *)
  let drifted =
    {
      sample_entry with
      Regress.wall_ms = 5000.;
      events_per_sec = 10.;
      minor_words = sample_entry.Regress.minor_words *. 0.75;
    }
  in
  check "identical reports pass" true
    (Regress.compare_reports ~baseline ~current:(sample_report [ sample_entry ]) = []);
  check "host-field drift passes" true
    (Regress.compare_reports ~baseline ~current:(sample_report [ drifted ]) = [])

(* Virtual fields are deterministic, so any drift at all is a change:
   0.01% of throughput trips the gate and names the field. *)
let test_compare_tiny_drift () =
  let baseline = baseline_of [ sample_entry ] in
  let current =
    sample_report
      [ { sample_entry with Regress.throughput_ops = sample_entry.Regress.throughput_ops *. 1.0001 } ]
  in
  match Regress.compare_reports ~baseline ~current with
  | [ v ] ->
      check "names the row and the field" true
        (Str.string_match (Str.regexp "sbft-fast-optimistic: throughput_ops ") v 0)
  | v -> Alcotest.failf "want one violation, got %d" (List.length v)

let test_compare_trips_on_regression () =
  let baseline = baseline_of [ sample_entry ] in
  let trips label current =
    let v = Regress.compare_reports ~baseline ~current:(sample_report [ current ]) in
    check (label ^ " trips the gate") true (v <> []);
    check (label ^ " names the scenario") true
      (List.exists
         (fun s ->
           (* every violation message carries the grid row id *)
           try ignore (Str.search_forward (Str.regexp_string "sbft-fast-optimistic") s 0); true
           with Not_found -> false)
         v)
  in
  trips "throughput regression"
    { sample_entry with Regress.throughput_ops = sample_entry.Regress.throughput_ops *. 0.8 };
  trips "throughput improvement (baseline stale)"
    { sample_entry with Regress.throughput_ops = sample_entry.Regress.throughput_ops *. 1.2 };
  trips "latency regression" { sample_entry with Regress.p99_ms = 10. };
  trips "fast-path fraction drop" { sample_entry with Regress.fast_fraction = 0.5 };
  trips "crypto blow-up"
    { sample_entry with Regress.crypto_us = [ ("combine", 5000.); ("combined_verify", 900.) ] };
  trips "crypto label appears"
    {
      sample_entry with
      Regress.crypto_us = sample_entry.Regress.crypto_us @ [ ("share_batch_verify", 9000.) ];
    };
  trips "event-count blow-up" { sample_entry with Regress.events = 200_000 };
  trips "allocation blow-up" { sample_entry with Regress.minor_words = 2e8 };
  trips "allocation drop (baseline stale)" { sample_entry with Regress.minor_words = 5e7 }

let test_compare_shape_changes () =
  let baseline = baseline_of [ sample_entry ] in
  check "missing scenario trips" true
    (Regress.compare_reports ~baseline ~current:(sample_report []) <> []);
  check "extra scenario trips" true
    (Regress.compare_reports ~baseline
       ~current:(sample_report [ sample_entry; { sample_entry with Regress.name = "new-row" } ])
    <> []);
  check "config shape change trips" true
    (Regress.compare_reports ~baseline
       ~current:(sample_report [ { sample_entry with Regress.clients = 8 } ])
    <> [])

(* ------------------------------------------------------------------ *)
(* The measured grid itself *)

(* Host state a run leaves behind (memos, the cost tally) must not leak
   into the next run: running A and then B in one process gives B's
   report and trace digest byte for byte as B alone does.  The test runs
   first among the simulations of this executable, so its first B is
   the process's first run. *)
let test_run_isolation () =
  let scenario ?crash_primary_at ?(failures = 0) protocol =
    Sbft_harness.Scenario.default ~topology:`Lan ~warmup:(Sbft_sim.Engine.ms 100)
      ~duration:(Sbft_sim.Engine.ms 400) ~seed:5L ~failures ?crash_primary_at ~protocol
      ~f:1 ~workload:(Scenario.Kv { batching = true }) ~num_clients:4 ()
  in
  let a = scenario ~failures:1 (Scenario.SBFT 1) in
  let b = scenario ~crash_primary_at:(Sbft_sim.Engine.ms 250) (Scenario.SBFT 0) in
  let observe sc =
    let report =
      { Regress.schema = Regress.schema_id; entries = [ Regress.measure_one ~name:"b" sc ] }
    in
    ( Regress.to_json (Regress.strip_host report),
      Sbft_sim.Replay.digest_records (Scenario.run_traced sc) )
  in
  let alone_report, alone_digest = observe b in
  ignore (observe a : string * Sbft_sim.Replay.digest);
  let after_report, after_digest = observe b in
  check_str "report of B after A equals B alone" alone_report after_report;
  check "trace digest of B after A equals B alone" true
    (Int64.equal alone_digest after_digest)

let test_measure_deterministic () =
  (* Two runs of the quick grid are bit-identical: virtual time only.
     This is the property that licenses an exact gate. *)
  let r1 = Regress.measure `Quick in
  let r2 = Regress.measure `Quick in
  (* Host CPU time and events-per-second are host-side by nature, and
     allocation is gated only within a band; everything else must be
     bit-identical. *)
  check_str "identical JSON across runs"
    (Regress.to_json (Regress.strip_host r1))
    (Regress.to_json (Regress.strip_host r2));
  check_str "schema id" Regress.schema_id r1.Regress.schema;
  check_int "grid size" 7 (List.length r1.Regress.entries);
  (* The headline comparison rows exist and optimistic combining wins. *)
  (match Regress.optimistic_speedup r1 with
  | Some s -> check "optimistic combining is faster" true (s > 1.0)
  | None -> Alcotest.fail "speedup rows missing from grid");
  (* Durability costs something, but not everything: disabling the WAL
     must speed the same scenario up, within reason. *)
  (match Regress.durability_overhead r1 with
  | Some pct ->
      check "wal-off is faster" true (pct > 0.);
      check "durability overhead sane (< 50%)" true (pct < 50.)
  | None -> Alcotest.fail "durability rows missing from grid");
  (* Every row did useful work and carries a crypto breakdown. *)
  List.iter
    (fun e ->
      check (e.Regress.name ^ " throughput positive") true (e.Regress.throughput_ops > 0.);
      check (e.Regress.name ^ " latency ordered") true (e.Regress.p99_ms >= e.Regress.p50_ms);
      check (e.Regress.name ^ " has crypto tally") true (e.Regress.crypto_us <> []);
      check (e.Regress.name ^ " executed events") true (e.Regress.events > 0);
      check (e.Regress.name ^ " allocated") true (e.Regress.minor_words > 0.))
    r1.Regress.entries;
  (* The committed baseline still describes this code: the regression
     gate, run on every test pass. *)
  match Regress.load ~path:"../bench/baseline.json" with
  | Error e -> Alcotest.fail ("cannot load the baseline: " ^ e)
  | Ok baseline ->
      Alcotest.(check (list string))
        "matches bench/baseline.json (refresh with regress --update-baseline)" []
        (Regress.compare_reports ~baseline ~current:r1)

let () =
  Alcotest.run "sbft_regress"
    [
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "parse edges" `Quick test_json_parse_edges;
          Alcotest.test_case "non-finite numbers" `Quick test_json_non_finite;
        ] );
      ( "report",
        [
          Alcotest.test_case "schema check" `Quick test_report_schema_check;
        ] );
      ( "comparator",
        [
          Alcotest.test_case "host fields" `Quick test_compare_host_fields;
          Alcotest.test_case "tiny drift" `Quick test_compare_tiny_drift;
          Alcotest.test_case "trips on regression" `Quick test_compare_trips_on_regression;
          Alcotest.test_case "shape changes" `Quick test_compare_shape_changes;
        ] );
      ( "measure",
        [
          Alcotest.test_case "run A then B equals B alone" `Quick test_run_isolation;
          Alcotest.test_case "deterministic grid" `Slow test_measure_deterministic;
        ] );
    ]
