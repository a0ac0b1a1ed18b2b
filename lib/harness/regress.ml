open Sbft_sim

(* Benchmark regression harness (CI gate).

   Runs a fixed grid of quick-scale scenarios, captures throughput,
   latency percentiles, and the per-crypto-op simulated-CPU breakdown
   (Cost_model.Tally), and emits BENCH_<n>.json.  Diffed against a
   committed baseline (bench/baseline.json), it turns any later
   performance change — protocol or cost-model — into a test failure.

   Everything measured is *virtual* time from the deterministic
   simulator, so the numbers are bit-identical across hosts and reruns:
   the gate demands exact equality, and a deliberate change ships with
   a reviewed baseline update. *)

type entry = {
  name : string;
  protocol : string;
  n : int;
  f : int;
  c : int;
  clients : int;
  throughput_ops : float;
  p50_ms : float;
  p99_ms : float;
  fast_fraction : float;
  crypto_us : (string * float) list;
  (* v2: host-side cost of producing the virtual numbers.  [events] is
     deterministic (same code, same count); [minor_words] nearly so;
     [wall_ms] (host CPU time, despite the name) and [events_per_sec]
     depend on the machine (gated only by the paper-scale smoke
     budget). *)
  wall_ms : float;
  events : int;
  events_per_sec : float;
  minor_words : float;
}

type report = { schema : string; entries : entry list }

let schema_id = "sbft-bench-v2"

(* Zero the fields that depend on the host or on process history
   (allocation drifts a little between in-process reruns as caches
   warm), leaving only fully deterministic ones — what the gate, the
   determinism test and byte-identity checks compare. *)
let strip_entry e = { e with wall_ms = 0.; events_per_sec = 0.; minor_words = 0. }
let strip_host r = { r with entries = List.map strip_entry r.entries }

(* ------------------------------------------------------------------ *)
(* The scenario grid *)

let grid_scenario ~scale ~name ?(failures = 0) ?(tweak = Fun.id) ~protocol () =
  let duration =
    match scale with `Quick -> Engine.ms 600 | `Full -> Engine.sec 2
  in
  ( name,
    Scenario.default ~topology:`Lan ~warmup:(Engine.ms 200) ~duration ~seed:11L
      ~failures ~tweak ~protocol ~f:1
      ~workload:(Scenario.Kv { batching = true })
      ~num_clients:4 () )

(* The two sbft-fast-* rows are the headline comparison: identical
   scenario, optimistic combine-then-verify on vs. the pessimistic
   verify-every-share baseline. *)
let grid (scale : Experiments.scale) =
  let s = grid_scenario ~scale in
  [
    s ~name:"sbft-fast-optimistic" ~protocol:(Scenario.SBFT 0) ();
    s ~name:"sbft-fast-pershare" ~protocol:(Scenario.SBFT 0)
      ~tweak:(fun c -> { c with Sbft_core.Config.optimistic_combine = false })
      ();
    (* Durability-overhead pair: the same scenario with the write-ahead
       log (group-committed fsyncs on the protocol's critical path)
       switched off.  The gap is the price of crash-amnesia recovery. *)
    s ~name:"sbft-no-wal" ~protocol:(Scenario.SBFT 0)
      ~tweak:(fun c -> { c with Sbft_core.Config.durable_wal = false })
      ();
    s ~name:"sbft-c1" ~protocol:(Scenario.SBFT 1) ();
    s ~name:"sbft-slowpath" ~protocol:(Scenario.SBFT 0) ~failures:1 ();
    s ~name:"linear-pbft" ~protocol:Scenario.Linear_PBFT ();
    s ~name:"pbft" ~protocol:Scenario.PBFT ();
  ]

let c_of_protocol = function Scenario.SBFT c -> c | _ -> 0

let entry_of_point ~name (p : Scenario.point) ~crypto =
  let s = p.Scenario.scenario in
  let c = c_of_protocol s.Scenario.protocol in
  (* n flows from Config (R4), through the same constructor the
     scenario itself uses. *)
  let n =
    match s.Scenario.protocol with
    | Scenario.SBFT c -> Sbft_core.Config.n (Sbft_core.Config.sbft ~f:s.Scenario.f ~c)
    | _ -> Sbft_core.Config.n (Sbft_core.Config.linear_pbft ~f:s.Scenario.f)
  in
  {
    name;
    protocol = Scenario.protocol_name s.Scenario.protocol;
    n;
    f = s.Scenario.f;
    c;
    clients = s.Scenario.num_clients;
    throughput_ops = p.Scenario.throughput_ops;
    p50_ms = p.Scenario.median_latency_ms;
    p99_ms = p.Scenario.p99_latency_ms;
    fast_fraction = p.Scenario.fast_fraction;
    crypto_us =
      List.map
        (fun (label, ns) -> (label, float_of_int ns /. 1_000.))
        crypto;
    wall_ms = p.Scenario.host_seconds *. 1000.;
    events = p.Scenario.events;
    events_per_sec = p.Scenario.events_per_sec;
    minor_words = p.Scenario.minor_words;
  }

let measure_row (name, sc) =
  Sbft_crypto.Cost_model.Tally.reset ();
  let p = Scenario.run sc in
  let crypto = Sbft_crypto.Cost_model.Tally.snapshot () in
  (entry_of_point ~name p ~crypto, p)

let measure_one ~name sc = fst (measure_row (name, sc))

let measure scale =
  { schema = schema_id; entries = List.map (fun row -> fst (measure_row row)) (grid scale) }

(* ------------------------------------------------------------------ *)
(* JSON *)

open Report.Json

let json_of_entry e =
  Obj
    [
      ("name", Str e.name);
      ("protocol", Str e.protocol);
      ("n", Num (float_of_int e.n));
      ("f", Num (float_of_int e.f));
      ("c", Num (float_of_int e.c));
      ("clients", Num (float_of_int e.clients));
      ("throughput_ops", Num e.throughput_ops);
      ("p50_ms", Num e.p50_ms);
      ("p99_ms", Num e.p99_ms);
      ("fast_fraction", Num e.fast_fraction);
      ("crypto_us", Obj (List.map (fun (l, v) -> (l, Num v)) e.crypto_us));
      ("wall_ms", Num e.wall_ms);
      ("events", Num (float_of_int e.events));
      ("events_per_sec", Num e.events_per_sec);
      ("minor_words", Num e.minor_words);
    ]

let to_json r =
  to_string
    (Obj
       [
         ("schema", Str r.schema);
         ("entries", Arr (List.map json_of_entry r.entries));
       ])

(* A report parsed back is compared as JSON, so only its schema and
   its entries array are checked here. *)
let of_json s =
  let ( let* ) = Result.bind in
  let* j = parse s in
  let* () =
    match Option.bind (member "schema" j) to_str with
    | None -> Error "missing schema field"
    | Some schema when String.equal schema schema_id -> Ok ()
    | Some schema -> Error (Printf.sprintf "unknown schema %S (want %S)" schema schema_id)
  in
  match member "entries" j with
  | Some (Arr entries) -> Ok entries
  | _ -> Error "missing entries array"

let write ~path r =
  let oc = open_out path in
  output_string oc (to_json r);
  close_out oc

let load ~path =
  match open_in path with
  | exception Sys_error e -> Error e
  | ic ->
      let len = in_channel_length ic in
      let s = really_input_string ic len in
      close_in ic;
      of_json s

(* ------------------------------------------------------------------ *)
(* The regression gate *)

(* Allocation is the one gated host-side field: deterministic for the
   same code but drifting a little between in-process reruns, so it
   gets a band, both ways — a blow-up and a stale baseline both trip. *)
let minor_words_band = 0.30

let find_entry name entries =
  List.find_opt (fun e -> String.equal e.name name) entries

let entry_name j = Option.value ~default:"(unnamed)" (Option.bind (member "name" j) to_str)

(* The fields [strip_host] zeroes, dropped from an entry's JSON. *)
let virtual_json = function
  | Obj fields ->
      Obj
        (List.filter
           (fun (k, _) ->
             not (List.exists (String.equal k) [ "wall_ms"; "events_per_sec"; "minor_words" ]))
           fields)
  | j -> j

(* One "<field> <measured> vs baseline <value>" line per JSON field
   that differs, walking nested objects (crypto_us) label by label. *)
let rec field_diffs path base cur =
  let show = Option.fold ~none:"absent" ~some:(fun j -> String.trim (to_string j)) in
  match (base, cur) with
  | Some (Obj b), Some (Obj c) ->
      let keys =
        List.map fst b
        @ List.filter (fun k -> not (List.mem_assoc k b)) (List.map fst c)
      in
      List.concat_map
        (fun k ->
          field_diffs
            (if String.equal path "" then k else path ^ "." ^ k)
            (List.assoc_opt k b) (List.assoc_opt k c))
        keys
  | _ ->
      let b = show base and c = show cur in
      if String.equal b c then []
      else [ Printf.sprintf "%s %s vs baseline %s" path c b ]

(* Every field [strip_host] keeps must be identical; allocation must
   stay inside its band. *)
let compare_entry base (cur : entry) =
  let diffs = field_diffs "" (Some (virtual_json base)) (Some (virtual_json (json_of_entry cur))) in
  let base_words = Option.value ~default:0. (Option.bind (member "minor_words" base) to_float) in
  let alloc =
    if
      Float.abs (cur.minor_words -. base_words)
      > minor_words_band *. Float.abs base_words
    then
      [
        Printf.sprintf "minor_words %.0f vs baseline %.0f (%+.1f%%, band ±%.0f%%)"
          cur.minor_words base_words
          (100. *. (cur.minor_words -. base_words) /. base_words)
          (100. *. minor_words_band);
      ]
    else []
  in
  List.map (fun d -> cur.name ^ ": " ^ d) (diffs @ alloc)

let compare_reports ~baseline ~current =
  List.concat_map
    (fun base ->
      let name = entry_name base in
      match find_entry name current.entries with
      | None -> [ name ^ ": present in baseline but not measured" ]
      | Some cur -> compare_entry base cur)
    baseline
  @ List.filter_map
      (fun (cur : entry) ->
        if List.exists (fun base -> String.equal (entry_name base) cur.name) baseline then None
        else Some (cur.name ^ ": measured but absent from the baseline"))
      current.entries

(* Headline number: optimistic combine-then-verify vs. per-share
   verification on the same scenario. *)
let optimistic_speedup r =
  match
    ( find_entry "sbft-fast-optimistic" r.entries,
      find_entry "sbft-fast-pershare" r.entries )
  with
  | Some opt, Some pess when pess.throughput_ops > 0.0 ->
      Some (opt.throughput_ops /. pess.throughput_ops)
  | _ -> None

(* Headline number: the throughput cost of WAL durability (group-
   committed fsyncs on the critical path) on the same scenario. *)
let durability_overhead r =
  match
    (find_entry "sbft-fast-optimistic" r.entries, find_entry "sbft-no-wal" r.entries)
  with
  | Some wal, Some nowal when wal.throughput_ops > 0.0 ->
      Some ((nowal.throughput_ops /. wal.throughput_ops -. 1.0) *. 100.)
  | _ -> None

let print r =
  Printf.printf "\nBenchmark regression grid (%s)\n%s\n" r.schema
    (String.make 110 '-');
  Printf.printf "%-22s %-18s %3s %7s %10s %8s %8s %6s %8s %8s\n" "scenario"
    "protocol" "n" "clients" "ops/s" "p50 ms" "p99 ms" "fast%" "cpu ms"
    "kev/s";
  List.iter
    (fun e ->
      Printf.printf "%-22s %-18s %3d %7d %10.0f %8.1f %8.1f %5.0f%% %8.0f %8.1f\n"
        e.name e.protocol e.n e.clients e.throughput_ops e.p50_ms e.p99_ms
        (100. *. e.fast_fraction)
        e.wall_ms
        (e.events_per_sec /. 1000.))
    r.entries;
  Printf.printf "%s\n" (String.make 110 '-');
  (match optimistic_speedup r with
  | Some s ->
      Printf.printf
        "optimistic combine-then-verify speedup vs per-share verification: %.2fx\n"
        s
  | None -> ());
  (match durability_overhead r with
  | Some pct ->
      Printf.printf
        "throughput without the WAL vs with it (durability overhead): %+.1f%%\n"
        pct
  | None -> ());
  Printf.printf "%!"

(* ------------------------------------------------------------------ *)
(* Paper-scale family *)

(* n = 3f + 2c + 1 at f = 64: the paper's system sizes (193 and 209).
   Each row carries a finite request budget — 64 clients × 25 batched
   requests × 64 ops/batch ≈ 102k operations — so its cost is bounded
   by work done, not by a horizon: the CI CPU-time budget then measures
   simulator speed directly.  The view-change row crashes the initial
   primary mid-run and must still finish the full budget. *)
let paper_clients = 64
let paper_requests_per_client = 25

let paper_scenario ~name ?(c = 0) ?crash_primary_at () =
  ( name,
    Scenario.default ~topology:`Lan ~warmup:(Engine.ms 200)
      ~duration:(Engine.sec 12) ~seed:11L
      ~requests_per_client:paper_requests_per_client ?crash_primary_at
      ~protocol:(Scenario.SBFT c) ~f:64
      ~workload:(Scenario.Kv { batching = true })
      ~num_clients:paper_clients () )

let paper_grid () =
  [
    paper_scenario ~name:"paper-fast-n193" ();
    paper_scenario ~name:"paper-c8-n209" ~c:8 ();
    paper_scenario ~name:"paper-viewchange-n193"
      ~crash_primary_at:(Engine.ms 600) ();
  ]

type paper_row = { entry : entry; point : Scenario.point }

let filter_grid ?only grid =
  match only with
  | None -> grid
  | Some name -> List.filter (fun (n, _) -> String.equal n name) grid

let measure_paper ?only () =
  List.map
    (fun row ->
      let entry, point = measure_row row in
      { entry; point })
    (filter_grid ?only (paper_grid ()))

let json_of_paper_row { entry; point } =
  match json_of_entry entry with
  | Obj fields ->
      Obj
        (fields
        @ [
            ("completed_requests", Num (float_of_int point.Scenario.completed_requests));
            ("view_changes", Num (float_of_int point.Scenario.view_changes));
            ("agreement", Bool point.Scenario.agreement);
            ("profile", Report.json_of_profile point.Scenario.profile);
          ])
  | j -> j

let paper_report_json rows =
  to_string
    (Obj
       [
         ("schema", Str "sbft-paper-v1");
         ("entries", Arr (List.map json_of_paper_row rows));
       ])

(* ------------------------------------------------------------------ *)
(* Seeded sweep: mean ± 95% confidence interval over S seeds *)

type stat = { mean : float; ci95 : float }

(* Two-sided Student-t 0.975 quantile; the asymptotic 1.96 past the
   table.  Indexed by degrees of freedom (S - 1). *)
let t975 df =
  let table =
    [|
      12.706; 4.303; 3.182; 2.776; 2.571; 2.447; 2.365; 2.306; 2.262; 2.228;
      2.201; 2.179; 2.160; 2.145; 2.131; 2.120; 2.110; 2.101; 2.093; 2.086;
      2.080; 2.074; 2.069; 2.064; 2.060; 2.056; 2.052; 2.048; 2.045; 2.042;
    |]
  in
  if df < 1 then infinity
  else if df <= Array.length table then table.(df - 1)
  else 1.96

let summarize xs =
  let n = List.length xs in
  if n = 0 then { mean = nan; ci95 = nan }
  else begin
    let nf = float_of_int n in
    let mean = List.fold_left ( +. ) 0. xs /. nf in
    if n = 1 then { mean; ci95 = infinity }
    else begin
      let var =
        List.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.)) 0. xs
        /. (nf -. 1.)
      in
      { mean; ci95 = t975 (n - 1) *. sqrt var /. sqrt nf }
    end
  end

type sweep_row = {
  sweep_name : string;
  seeds : int;
  throughput : stat;
  p50_lat : stat;
  fast_frac : stat;
  wall_s : stat;
  ev_per_sec : stat;
}

let sweep ?only ~seeds () =
  List.map
    (fun (name, sc) ->
      let points =
        List.init seeds (fun i ->
            Scenario.run
              { sc with Scenario.seed = Int64.add sc.Scenario.seed (Int64.of_int i) })
      in
      let stat f = summarize (List.map f points) in
      {
        sweep_name = name;
        seeds;
        throughput = stat (fun p -> p.Scenario.throughput_ops);
        p50_lat = stat (fun p -> p.Scenario.median_latency_ms);
        fast_frac = stat (fun p -> p.Scenario.fast_fraction);
        wall_s = stat (fun p -> p.Scenario.host_seconds);
        ev_per_sec = stat (fun p -> p.Scenario.events_per_sec);
      })
    (filter_grid ?only (paper_grid ()))

let json_of_stat s = Obj [ ("mean", Num s.mean); ("ci95", Num s.ci95) ]

let sweep_report_json rows =
  to_string
    (Obj
       [
         ("schema", Str "sbft-sweep-v1");
         ( "entries",
           Arr
             (List.map
                (fun r ->
                  Obj
                    [
                      ("name", Str r.sweep_name);
                      ("seeds", Num (float_of_int r.seeds));
                      ("throughput_ops", json_of_stat r.throughput);
                      ("p50_ms", json_of_stat r.p50_lat);
                      ("fast_fraction", json_of_stat r.fast_frac);
                      ("wall_s", json_of_stat r.wall_s);
                      ("events_per_sec", json_of_stat r.ev_per_sec);
                    ])
                rows) );
       ])

let print_sweep rows =
  Printf.printf "\nSeeded sweep (mean ± 95%% CI over %d seeds)\n%s\n"
    (match rows with r :: _ -> r.seeds | [] -> 0)
    (String.make 100 '-');
  Printf.printf "%-24s %22s %16s %12s %14s\n" "scenario" "ops/s" "p50 ms"
    "fast%" "host s";
  List.iter
    (fun r ->
      Printf.printf "%-24s %12.0f ± %7.0f %8.2f ± %5.2f %5.1f ± %3.1f %8.1f ± %4.1f\n"
        r.sweep_name r.throughput.mean r.throughput.ci95 r.p50_lat.mean
        r.p50_lat.ci95
        (100. *. r.fast_frac.mean)
        (100. *. r.fast_frac.ci95)
        r.wall_s.mean r.wall_s.ci95)
    rows;
  Printf.printf "%s\n%!" (String.make 100 '-')
