(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md for the experiment index) plus
   micro-benchmarks of the cryptographic and EVM substrates.

   Usage:
     bench/main.exe                 run everything at quick scale
     bench/main.exe --full ...      paper scale (f=64, n=193-209; slow)
     bench/main.exe fig1            Figure 1 message-flow trace
     bench/main.exe fig2            Figures 2+3 grids (throughput/latency)
     bench/main.exe contract-continent | contract-world | contract-baseline
     bench/main.exe ablation        ingredient ablations
     bench/main.exe micro           Bechamel micro-benchmarks
     bench/main.exe regress         regression grid -> bench_out/BENCH_3.json,
                                    diffed against bench/baseline.json (CI
                                    gate); --update-baseline rewrites the
                                    baseline
     bench/main.exe regress --paper [--only NAME] [--budget-wall-s N]
                                    paper-scale smoke (n=193-209, ~102k ops
                                    per row); writes bench_out/paper_profile.json
                                    and fails rows over the CPU-time budget
     bench/main.exe regress --sweep S [--only NAME]
                                    seeded sweep of the paper family, S seeds;
                                    mean +/- 95% CI -> bench_out/seed_sweep.json
     bench/main.exe check ...       schedule fuzzer: generate -> run property
                                    oracles -> shrink counterexamples (see
                                    `check --help`; also `check replay-dir
                                    test/corpus`)
     bench/main.exe point ...       one custom scenario, e.g.
                                    point --protocol sbft-8 -f 64 --clients 128
                                    (see `point --help`); exits 2 when the
                                    replicas disagree *)

open Sbft_harness

(* ------------------------------------------------------------------ *)
(* Micro-benchmarks *)

let micro () =
  let open Bechamel in
  let open Sbft_crypto in
  Printf.printf "\n=== Micro-benchmarks (host-CPU performance of the substrates) ===\n%!";
  let msg64 = String.make 64 'x' and msg1k = String.make 1024 'x' in
  let rng = Sbft_sim.Rng.create 5L in
  let scheme, keys = Threshold.setup rng ~n:25 ~k:17 in
  let shares =
    Array.to_list (Array.map (fun k -> Threshold.share_sign k ~msg:msg64) keys)
  in
  let sigma = Threshold.combine_exn scheme ~msg:msg64 shares in
  let fa = Field.random rng and fb = Field.random rng in
  (* The tau quorum at n=193 (f=64, c=0): 129 signers spread over 1..193,
     coefficients recomputed from the tables on every call (the
     signer-set memo is bypassed). *)
  let scheme193, _ = Threshold.setup rng ~n:193 ~k:129 in
  let signers129 = Array.init 129 (fun i -> (i * 193 / 129) + 1) in
  let block_hash = Sha256.digest "block" in
  let leaves = List.init 64 (fun i -> Printf.sprintf "leaf-%d" i) in
  let tree = Merkle.build leaves in
  let mm =
    List.fold_left
      (fun m i -> Merkle_map.set m ~key:(string_of_int i) ~value:"v")
      Merkle_map.empty
      (List.init 1000 (fun i -> i))
  in
  (* A block's worth of Puts on a 10k-key map whose hashes are all
     computed: [root] then hashes each node the 64 Puts touched once. *)
  let mm10k =
    List.fold_left
      (fun m i -> Merkle_map.set m ~key:(Printf.sprintf "key-%06d" i) ~value:"v")
      Merkle_map.empty
      (List.init 10_000 (fun i -> i))
  in
  ignore (Merkle_map.root mm10k);
  let puts64 =
    List.init 64 (fun j ->
        (Printf.sprintf "key-%06d" (j * 7919 mod 10_000), Printf.sprintf "value-%d" j))
  in
  (* The record a replica logs when it accepts a paper-scale block:
     five batch-64 KV requests, ~9 KB of ops.  Pending records are
     dropped after each append so the log does not grow across
     iterations. *)
  let pre_prepare =
    Sbft_store.Wal.Accepted_pre_prepare
      {
        seq = 1_000;
        view = 3;
        reqs =
          List.init 5 (fun client ->
              {
                Sbft_store.Block_store.client;
                timestamp = 1;
                op = Sbft_workload.Kv_workload.make_op ~batching:true ~client 0;
                signature = "";
              });
      }
  in
  let wal = Sbft_store.Wal.create () in
  let a = Sbft_evm.U256.of_bytes_be (Sha256.digest "a") in
  let b = Sbft_evm.U256.of_bytes_be (Sha256.digest "b") in
  (* EVM: the pre-deployed token and a transfer call. *)
  let sender = Sbft_workload.Eth_workload.account 1 in
  let state =
    let store = Sbft_workload.Eth_workload.service.Sbft_core.Cluster.make_store () in
    Sbft_store.Auth_store.state store
  in
  let transfer_data =
    Sbft_evm.Contracts.token_transfer
      ~to_:(Sbft_workload.Eth_workload.account 2)
      ~amount:(Sbft_evm.U256.of_int 5)
  in
  let token = Sbft_workload.Eth_workload.token_address 0 in
  (* The engine's event queue in the pbft-nobatch shape: 4k pending
     entries; each op pops the earliest and pushes an arrival ~150 us
     past it, plus jitter, so the queue stays at 4k. *)
  let queue = Sbft_sim.Wheel.create ~dummy:0 in
  let jitter = Array.init 4096 (fun _ -> Sbft_sim.Rng.int rng 20_000) in
  let seq = ref 0 in
  let enqueue now =
    incr seq;
    Sbft_sim.Wheel.push queue ~key0:(now + 150_000 + jitter.(!seq land 4095)) ~key1:!seq !seq
  in
  for _ = 1 to 4096 do
    enqueue 0
  done;
  let tests =
    [
      Test.make ~name:"sha256-64B" (Staged.stage (fun () -> Sha256.digest msg64));
      Test.make ~name:"sha256-1KiB" (Staged.stage (fun () -> Sha256.digest msg1k));
      Test.make ~name:"keccak256-64B" (Staged.stage (fun () -> Keccak.digest msg64));
      Test.make ~name:"hmac-64B" (Staged.stage (fun () -> Hmac.mac ~key:"k" msg64));
      Test.make ~name:"field-mul" (Staged.stage (fun () -> Field.mul fa fb));
      Test.make ~name:"lagrange-coeffs-129of193-cold"
        (Staged.stage (fun () -> Threshold.lagrange_coeffs scheme193 signers129));
      Test.make ~name:"hash-to-field"
        (Staged.stage (fun () -> Threshold.hash_to_field block_hash));
      Test.make ~name:"threshold-share-sign"
        (Staged.stage (fun () -> Threshold.share_sign keys.(0) ~msg:msg64));
      Test.make ~name:"threshold-combine-17of25"
        (Staged.stage (fun () -> Threshold.combine scheme ~msg:msg64 shares));
      Test.make ~name:"threshold-verify"
        (Staged.stage (fun () -> Threshold.verify scheme ~msg:msg64 sigma));
      Test.make ~name:"merkle-build-64" (Staged.stage (fun () -> Merkle.build leaves));
      Test.make ~name:"merkle-prove" (Staged.stage (fun () -> Merkle.prove tree 13));
      Test.make ~name:"merkle-map-set"
        (Staged.stage (fun () -> Merkle_map.set mm ~key:"new-key" ~value:"v"));
      Test.make ~name:"merkle-map-prove"
        (Staged.stage (fun () -> Merkle_map.prove mm "500"));
      Test.make ~name:"merkle-map-64-puts-root-10k"
        (Staged.stage (fun () ->
             Merkle_map.root
               (List.fold_left
                  (fun m (key, value) -> Merkle_map.set m ~key ~value)
                  mm10k puts64)));
      Test.make ~name:"wal-append-preprepare-9KB"
        (Staged.stage (fun () ->
             let n = Sbft_store.Wal.append wal pre_prepare in
             Sbft_store.Wal.drop_pending wal;
             n));
      Test.make ~name:"event-queue-4k-pop-push"
        (Staged.stage (fun () ->
             let now = Sbft_sim.Wheel.min_key0 queue in
             ignore (Sbft_sim.Wheel.pop queue : int);
             enqueue now));
      Test.make ~name:"u256-mul" (Staged.stage (fun () -> Sbft_evm.U256.mul a b));
      Test.make ~name:"u256-div" (Staged.stage (fun () -> Sbft_evm.U256.div a b));
      Test.make ~name:"evm-token-transfer"
        (Staged.stage (fun () ->
             Sbft_evm.Interpreter.call ~ctx:Sbft_evm.Interpreter.default_context
               ~state ~caller:sender ~address:token ~value:Sbft_evm.U256.zero
               ~data:transfer_data ~gas:200_000));
    ]
  in
  let test = Test.make_grouped ~name:"sbft" ~fmt:"%s/%s" tests in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:None () in
  let raw = Benchmark.all cfg Toolkit.Instance.[ monotonic_clock ] test in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name r acc -> (name, r) :: acc) results [] in
  List.iter
    (fun (name, r) ->
      match Analyze.OLS.estimates r with
      | Some (est :: _) -> Printf.printf "%-34s %14.1f ns/op\n" name est
      | _ -> Printf.printf "%-34s %14s\n" name "n/a")
    (List.sort compare rows)

(* ------------------------------------------------------------------ *)
(* One custom scenario: any point of the configuration space, not just
   the paper's experiments.  Exits 2 when the replicas disagree, 1 on a
   bad flag or a configuration [Config.validate] rejects. *)

let point_usage =
  Printf.sprintf
    "usage: point [-p|--protocol pbft|linear-pbft|linear-pbft-fast|sbft|sbft-<c>] [-f F]\n\
    \             [-w|--workload kv-batch|kv-nobatch|eth] [--clients N] [--failures N]\n\
    \             [--topology %s] [--duration S] [--warmup S]\n\
    \             [--seed N] [--csv FILE]\n\
    \       defaults: sbft, f=2, kv-batch, 16 clients, 0 failures, continent,\n\
    \       2 s measured after 1 s warmup (virtual), seed 1\n"
    (String.concat "|" (List.map snd Sbft_sim.Topology.kind_names))

let point args =
  let protocol = ref (Scenario.SBFT 0) and f = ref 2 and clients = ref 16 in
  let workload = ref (Scenario.Kv { batching = true }) and failures = ref 0 in
  let topology = ref `Continent and duration = ref 2.0 and warmup = ref 1.0 in
  let seed = ref 1 and csv = ref None in
  let set r parse v = Option.fold ~none:false ~some:(fun x -> r := x; true) (parse v) in
  let one_of table v = List.assoc_opt v table in
  let protocol_of v =
    let v = String.lowercase_ascii v in
    let named =
      [ ("pbft", Scenario.PBFT); ("linear-pbft", Scenario.Linear_PBFT);
        ("linear", Scenario.Linear_PBFT); ("linear-pbft-fast", Scenario.Linear_PBFT_fast);
        ("fast", Scenario.Linear_PBFT_fast); ("sbft", Scenario.SBFT 0) ]
    in
    match one_of named v with
    | Some p -> Some p
    | None when String.starts_with ~prefix:"sbft-" v -> (
        match int_of_string_opt (String.sub v 5 (String.length v - 5)) with
        | Some c when c >= 0 -> Some (Scenario.SBFT c)
        | _ -> None)
    | None -> None
  in
  let flags =
    [
      ([ "-p"; "--protocol" ], set protocol protocol_of);
      ([ "-f" ], set f int_of_string_opt);
      ( [ "-w"; "--workload" ],
        set workload
          (one_of
             [ ("kv-batch", Scenario.Kv { batching = true });
               ("kv-nobatch", Scenario.Kv { batching = false }); ("eth", Scenario.Eth) ]) );
      ([ "--clients" ], set clients int_of_string_opt);
      ([ "--failures" ], set failures int_of_string_opt);
      ( [ "--topology" ],
        set topology
          (one_of (List.map (fun (k, name) -> (name, k)) Sbft_sim.Topology.kind_names)) );
      ([ "--duration" ], set duration float_of_string_opt);
      ([ "--warmup" ], set warmup float_of_string_opt);
      ([ "--seed" ], set seed int_of_string_opt);
      ([ "--csv" ], set csv (fun v -> Some (Some v)));
    ]
  in
  let rec parse = function
    | [] -> true
    | flag :: rest when String.starts_with ~prefix:"--" flag && String.contains flag '=' ->
        let i = String.index flag '=' in
        parse (String.sub flag 0 i :: String.sub flag (i + 1) (String.length flag - i - 1) :: rest)
    | flag :: v :: rest -> (
        match List.find_opt (fun (names, _) -> List.mem flag names) flags with
        | Some (_, set) -> set v && parse rest
        | None -> false)
    | [ _ ] -> false
  in
  if List.exists (fun a -> a = "-h" || a = "--help") args then (print_string point_usage; 0)
  else if not (parse args) then (prerr_string point_usage; 1)
  else begin
    let scenario =
      Scenario.default ~failures:!failures ~topology:!topology
        ~warmup:(Sbft_sim.Engine.sec_f !warmup)
        ~duration:(Sbft_sim.Engine.sec_f !duration)
        ~seed:(Int64.of_int !seed) ~protocol:!protocol ~f:!f ~workload:!workload
        ~num_clients:!clients ()
    in
    match Sbft_core.Config.validate (Scenario.config_of scenario) with
    | Error e ->
        prerr_endline ("point: " ^ e);
        1
    | Ok () ->
        Printf.printf "running %s, f=%d, %d clients, %d failures...\n%!"
          (Scenario.protocol_name !protocol) !f !clients !failures;
        let point = Scenario.run scenario in
        Report.print_points ~title:"result" [ point ];
        Option.iter (fun path -> Report.write_csv ~path [ point ]) !csv;
        if point.Scenario.agreement then 0 else 2
  end

(* ------------------------------------------------------------------ *)

(* All file output lands in the gitignored bench_out/, never the repo
   root. *)
let bench_out file =
  let dir = "bench_out" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  Filename.concat dir file

(* ------------------------------------------------------------------ *)
(* Benchmark regression gate (CI): run the grid, emit BENCH_3.json,
   diff against the committed baseline. *)

let regress_baseline_path = "bench/baseline.json"

(* Paper-scale smoke (CI): run the n=193/209 family with its finite
   ~102k-operation budget, write the profile artifact, and (optionally)
   fail on an absolute budget of host CPU time ([Sys.time]) — the only
   place host time gates anything. *)
let regress_paper ~only ~budget_wall_s ~sweep_seeds =
  match sweep_seeds with
  | Some seeds ->
      let rows = Regress.sweep ?only ~seeds () in
      Regress.print_sweep rows;
      let path = bench_out "seed_sweep.json" in
      let oc = open_out path in
      output_string oc (Regress.sweep_report_json rows);
      close_out oc;
      Printf.printf "sweep report written to %s\n%!" path
  | None ->
      let rows = Regress.measure_paper ?only () in
      if rows = [] then begin
        Printf.eprintf "regress --paper: no row matches --only filter\n%!";
        exit 1
      end;
      Regress.print
        { Regress.schema = Regress.schema_id;
          entries = List.map (fun r -> r.Regress.entry) rows };
      let path = bench_out "paper_profile.json" in
      let oc = open_out path in
      output_string oc (Regress.paper_report_json rows);
      close_out oc;
      Printf.printf "profile artifact written to %s\n%!" path;
      let failures = ref 0 in
      List.iter
        (fun { Regress.entry; point } ->
          let expected =
            Regress.paper_clients * Regress.paper_requests_per_client
          in
          if not point.Scenario.agreement then begin
            incr failures;
            Printf.eprintf "paper: %s violated agreement\n%!" entry.Regress.name
          end;
          if point.Scenario.completed_requests < expected then begin
            incr failures;
            Printf.eprintf "paper: %s completed %d/%d requests\n%!"
              entry.Regress.name point.Scenario.completed_requests expected
          end;
          match budget_wall_s with
          | Some budget when entry.Regress.wall_ms > budget *. 1000. ->
              incr failures;
              Printf.eprintf
                "paper: %s took %.1f s of host CPU time (budget %.0f s)\n%!"
                entry.Regress.name
                (entry.Regress.wall_ms /. 1000.)
                budget
          | _ -> ())
        rows;
      if !failures > 0 then exit 1;
      Printf.printf "paper-scale smoke: OK%s\n%!"
        (match budget_wall_s with
        | Some b -> Printf.sprintf " (within %.0f s CPU-time budget per row)" b
        | None -> "")

let regress ~scale ~update_baseline =
  let current = Regress.measure scale in
  let report_path = bench_out "BENCH_3.json" in
  Regress.write ~path:report_path current;
  Regress.print current;
  Printf.printf "report written to %s\n%!" report_path;
  if update_baseline then begin
    Regress.write ~path:regress_baseline_path current;
    Printf.printf "baseline updated: %s\n%!" regress_baseline_path
  end
  else
    match scale with
    | `Full ->
        (* The committed baseline is recorded at quick scale; a full-
           scale run is informational only. *)
        Printf.printf "full scale: baseline comparison skipped (baseline is quick-scale)\n%!"
    | `Quick -> (
        match Regress.load ~path:regress_baseline_path with
        | Error e ->
            Printf.eprintf
              "regress: cannot load %s (%s); run with --update-baseline to create it\n%!"
              regress_baseline_path e;
            exit 1
        | Ok baseline -> (
            match Regress.compare_reports ~baseline ~current with
            | [] -> Printf.printf "regression gate: OK (matches %s)\n%!"
                      regress_baseline_path
            | violations ->
                Printf.eprintf "regression gate: FAILED vs %s\n" regress_baseline_path;
                List.iter (fun v -> Printf.eprintf "  - %s\n" v) violations;
                Printf.eprintf
                  "if the change is intentional, refresh the baseline with:\n\
                  \  bench/main.exe regress --update-baseline\n%!";
                exit 1))

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  (* `check` and `point` own their argument lists (check's --quick
     differs from the benchmark-scale flag below), so dispatch before
     the flag filter. *)
  (match args with
  | "check" :: rest -> exit (Sbft_check.Check.main rest)
  | "point" :: rest -> exit (point rest)
  | _ -> ());
  (* Valued flags (--only NAME, --budget-wall-s N, --sweep S) are
     stripped with their argument before the boolean-flag filter. *)
  let opt_value key args =
    let rec go acc = function
      | k :: v :: rest when String.equal k key -> (Some v, List.rev_append acc rest)
      | x :: rest -> go (x :: acc) rest
      | [] -> (None, List.rev acc)
    in
    go [] args
  in
  let only, args = opt_value "--only" args in
  let budget_wall_s, args = opt_value "--budget-wall-s" args in
  let sweep_seeds, args = opt_value "--sweep" args in
  (* A malformed value is a usage error (exit 1), as in [point]. *)
  let parse_value flag ~want parse = function
    | None -> None
    | Some v -> (
        match parse v with
        | Some x -> Some x
        | None ->
            Printf.eprintf "%s takes %s, got %S\n%!" flag want v;
            exit 1)
  in
  let budget_wall_s =
    parse_value "--budget-wall-s" ~want:"a number of seconds" float_of_string_opt
      budget_wall_s
  in
  let sweep_seeds =
    parse_value "--sweep" ~want:"a seed count of at least 1"
      (fun v -> Option.bind (int_of_string_opt v) (fun n -> if n >= 1 then Some n else None))
      sweep_seeds
  in
  let full = List.mem "--full" args in
  let paper = List.mem "--paper" args in
  let update_baseline = List.mem "--update-baseline" args in
  let scale : Experiments.scale = if full then `Full else `Quick in
  let cmds =
    List.filter
      (fun a ->
        not (List.mem a [ "--full"; "--quick"; "--update-baseline"; "--paper" ]))
      args
  in
  let run_all () =
    Experiments.fig1 ();
    micro ();
    Experiments.fig2_fig3 ~csv:(bench_out "fig2_fig3.csv") scale;
    Experiments.contract_bench scale `Continent;
    Experiments.contract_bench scale `World;
    Experiments.contract_baseline ();
    Experiments.ablation_c scale;
    Experiments.ablation_fast_mode scale;
    Experiments.ablation_stagger scale
  in
  match cmds with
  | [] -> run_all ()
  | cmds ->
      List.iter
        (function
          | "fig1" -> Experiments.fig1 ()
          | "fig2" | "fig3" -> Experiments.fig2_fig3 ~csv:(bench_out "fig2_fig3.csv") scale
          | "contract-continent" -> Experiments.contract_bench scale `Continent
          | "contract-world" -> Experiments.contract_bench scale `World
          | "contract-baseline" -> Experiments.contract_baseline ()
          | "ablation" ->
              Experiments.ablation_c scale;
              Experiments.ablation_fast_mode scale;
              Experiments.ablation_stagger scale
          | "micro" -> micro ()
          | "regress" ->
              if paper || sweep_seeds <> None then
                regress_paper ~only ~budget_wall_s ~sweep_seeds
              else regress ~scale ~update_baseline
          | other ->
              Printf.eprintf
                "unknown benchmark %S (try fig1 fig2 contract-continent \
                 contract-world contract-baseline ablation micro \
                 regress check point)\n"
                other;
              exit 1)
        cmds
