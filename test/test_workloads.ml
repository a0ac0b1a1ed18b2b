(* Tests for the workload generators (KV micro-benchmark, synthetic
   Ethereum trace) and the benchmark harness (scenario runner, report
   rendering). *)

open Sbft_sim
open Sbft_workload
open Sbft_harness

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* KV workload *)

let test_kv_single_op () =
  let op = Kv_workload.single_op ~client:3 7 in
  match Sbft_store.Kv_op.decode op with
  | Some (Sbft_store.Kv_op.Put _) -> ()
  | _ -> Alcotest.fail "expected a put"

let test_kv_batch_op () =
  let op = Kv_workload.batch_op ~client:3 7 in
  match Sbft_store.Kv_op.decode op with
  | Some (Sbft_store.Kv_op.Batch ops) ->
      check_int "64 ops" 64 (List.length ops);
      Alcotest.(check (option int)) "count" (Some 64) (Sbft_store.Kv_op.count_encoded op)
  | _ -> Alcotest.fail "expected a batch"

let test_kv_deterministic () =
  Alcotest.(check string)
    "same coordinates, same op"
    (Kv_workload.batch_op ~client:1 2)
    (Kv_workload.batch_op ~client:1 2);
  check "different clients differ" true
    (Kv_workload.batch_op ~client:1 2 <> Kv_workload.batch_op ~client:2 2)

let test_kv_exec_cost_scales () =
  let req op = { Sbft_core.Types.client = 0; timestamp = 1; op; signature = "" } in
  let single = Kv_workload.exec_cost [ req (Kv_workload.single_op ~client:0 0) ] in
  let batch = Kv_workload.exec_cost [ req (Kv_workload.batch_op ~client:0 0) ] in
  check "batch costs more" true (batch > 4 * single)

(* ------------------------------------------------------------------ *)
(* Ethereum workload *)

let test_eth_genesis_deterministic () =
  let d store = Sbft_crypto.Sha256.hex (Sbft_store.Auth_store.digest store) in
  let s1 = Eth_workload.service.Sbft_core.Cluster.make_store () in
  let s2 = Eth_workload.service.Sbft_core.Cluster.make_store () in
  Alcotest.(check string) "genesis digests equal" (d s1) (d s2)

let test_eth_genesis_contracts_live () =
  let store = Eth_workload.service.Sbft_core.Cluster.make_store () in
  let state = Sbft_store.Auth_store.state store in
  for i = 0 to Eth_workload.num_tokens - 1 do
    check
      (Printf.sprintf "token %d deployed" i)
      true
      (String.length (Sbft_evm.State.code state (Eth_workload.token_address i)) > 0)
  done;
  check "escrow deployed" true
    (String.length (Sbft_evm.State.code state Eth_workload.escrow_address) > 0);
  (* Every account holds a token balance after genesis distribution. *)
  let bal =
    Sbft_evm.State.sload state
      ~addr:(Eth_workload.token_address 0)
      ~slot:(Sbft_evm.U256.of_bytes_be (Eth_workload.account 5))
  in
  check "account 5 funded" true (not (Sbft_evm.U256.is_zero bal))

let test_eth_chunks () =
  let chunk = Eth_workload.make_chunk ~client:2 9 in
  check_int "tx count" Eth_workload.txs_per_chunk (Eth_workload.chunk_tx_count chunk);
  (* Roughly the paper's 12 KB framing: each tx ~100-250 bytes. *)
  let size = String.length chunk in
  check "chunk size plausible" true (size > 4_000 && size < 20_000);
  (* Executing a chunk against genesis succeeds for most transactions. *)
  let store = Eth_workload.service.Sbft_core.Cluster.make_store () in
  match Sbft_store.Auth_store.execute_block store ~seq:1 ~ops:[ chunk ] with
  | [ receipt ] -> (
      match Sbft_evm.Tx.decode_receipt receipt with
      | Some rc ->
          let ok_count = int_of_string rc.Sbft_evm.Tx.output in
          check "most txs applied" true (ok_count > Eth_workload.txs_per_chunk / 2)
      | None -> Alcotest.fail "bad receipt")
  | _ -> Alcotest.fail "expected one receipt"

let test_eth_cluster_end_to_end () =
  let cluster =
    Sbft_core.Cluster.create ~config:(Sbft_core.Config.sbft ~f:1 ~c:0) ~num_clients:2
      ~topology:(fun ~num_nodes -> Topology.lan ~num_nodes)
      ~service:Eth_workload.service ()
  in
  Sbft_core.Cluster.start_clients cluster ~requests_per_client:3
    ~make_op:(fun ~client i -> Eth_workload.make_chunk ~client i);
  Sbft_core.Cluster.run_for cluster (Engine.sec 30);
  check_int "all chunks committed" 6 (Sbft_core.Cluster.total_completed cluster);
  check "agreement on EVM state" true (Sbft_core.Cluster.agreement_ok cluster)

(* ------------------------------------------------------------------ *)
(* Harness *)

let quick ?(protocol = Scenario.SBFT 0) ?(workload = Scenario.Kv { batching = true })
    ?(failures = 0) () =
  Scenario.default ~topology:`Lan ~warmup:(Engine.ms 200) ~duration:(Engine.sec 1)
    ~failures ~protocol ~f:1 ~workload ~num_clients:4 ()

let test_scenario_sbft () =
  let p = Scenario.run (quick ()) in
  check "throughput positive" true (p.Scenario.throughput_ops > 0.0);
  check "latency positive" true (p.Scenario.median_latency_ms > 0.0);
  check "agreement" true p.Scenario.agreement;
  check "fast path dominant" true (p.Scenario.fast_fraction > 0.9)

let test_scenario_pbft () =
  let p = Scenario.run (quick ~protocol:Scenario.PBFT ()) in
  check "throughput positive" true (p.Scenario.throughput_ops > 0.0);
  check "agreement" true p.Scenario.agreement

(* The replay gate's primary-crash runs exist to pin the view-change
   path, so each must actually complete a view change. *)
let test_replay_crash_changes_view () =
  List.iter
    (fun name ->
      let p = Scenario.run (List.assoc name (Experiments.replay_scenarios ())) in
      check (name ^ " changes view") true (p.Scenario.view_changes >= 1);
      check (name ^ " agreement") true p.Scenario.agreement)
    [ "sbft-primary-crash"; "pbft-primary-crash" ]

let test_scenario_failures_force_slow_path () =
  let p = Scenario.run (quick ~failures:1 ()) in
  check "agreement" true p.Scenario.agreement;
  check "slow path" true (p.Scenario.fast_fraction < 0.1)

let test_scenario_deterministic () =
  let p1 = Scenario.run (quick ()) and p2 = Scenario.run (quick ()) in
  check "same throughput" true (p1.Scenario.throughput_ops = p2.Scenario.throughput_ops);
  check "same latency" true (p1.Scenario.median_latency_ms = p2.Scenario.median_latency_ms)

let test_ops_accounting () =
  (* Throughput is measured in operations: batch mode multiplies by 64. *)
  check_int "batch ops" 64 (Scenario.ops_per_request (Scenario.Kv { batching = true }));
  check_int "single op" 1 (Scenario.ops_per_request (Scenario.Kv { batching = false }));
  check_int "eth ops" Eth_workload.txs_per_chunk (Scenario.ops_per_request Scenario.Eth)

let test_csv () =
  let p = Scenario.run (quick ()) in
  let csv = Report.csv_of_points [ p; p ] in
  let lines = String.split_on_char '\n' (String.trim csv) in
  check_int "header + 2 rows" 3 (List.length lines);
  check "header fields" true
    (String.length (List.hd lines) > 0
    && String.sub (List.hd lines) 0 8 = "protocol")

let () =
  Alcotest.run "sbft_workloads"
    [
      ( "kv",
        [
          Alcotest.test_case "single op" `Quick test_kv_single_op;
          Alcotest.test_case "batch op" `Quick test_kv_batch_op;
          Alcotest.test_case "deterministic" `Quick test_kv_deterministic;
          Alcotest.test_case "exec cost" `Quick test_kv_exec_cost_scales;
        ] );
      ( "eth",
        [
          Alcotest.test_case "genesis deterministic" `Quick test_eth_genesis_deterministic;
          Alcotest.test_case "genesis contracts" `Quick test_eth_genesis_contracts_live;
          Alcotest.test_case "chunks" `Quick test_eth_chunks;
          Alcotest.test_case "cluster end-to-end" `Quick test_eth_cluster_end_to_end;
        ] );
      ( "harness",
        [
          Alcotest.test_case "sbft scenario" `Quick test_scenario_sbft;
          Alcotest.test_case "pbft scenario" `Quick test_scenario_pbft;
          Alcotest.test_case "failures -> slow path" `Quick test_scenario_failures_force_slow_path;
          Alcotest.test_case "replay crash runs change view" `Quick test_replay_crash_changes_view;
          Alcotest.test_case "deterministic" `Quick test_scenario_deterministic;
          Alcotest.test_case "ops accounting" `Quick test_ops_accounting;
          Alcotest.test_case "csv" `Quick test_csv;
        ] );
    ]
