open Sbft_sim
open Sbft_core

type scale = [ `Quick | `Full ]

let f_of_scale = function `Quick -> 8 | `Full -> 64
let clients_of_scale = function
  | `Quick -> [ 4; 16; 64 ]
  | `Full -> [ 4; 32; 64; 128; 192; 256 ]

let failures_of_scale = function `Quick -> [ 0; 1; 8 ] | `Full -> [ 0; 8; 64 ]

let c_of_scale = function `Quick -> 1 | `Full -> 8
(* The paper's heuristic: c ≈ f/8. *)

let protocols scale =
  [
    Scenario.PBFT;
    Scenario.Linear_PBFT;
    Scenario.Linear_PBFT_fast;
    Scenario.SBFT 0;
    Scenario.SBFT (c_of_scale scale);
  ]

(* ------------------------------------------------------------------ *)

let fig1 () =
  Printf.printf "%!\n=== Figure 1: fast-path message flow (n=4, f=1, c=0) ===\n";
  let cluster =
    Cluster.create ~trace:true ~config:(Config.sbft ~f:1 ~c:0) ~num_clients:1
      ~topology:(fun ~num_nodes -> Topology.lan ~num_nodes)
      ~service:Sbft_workload.Kv_workload.service ()
  in
  Cluster.start_clients cluster ~requests_per_client:1
    ~make_op:(Sbft_workload.Kv_workload.make_op ~batching:false);
  Cluster.run_for cluster (Engine.sec 5);
  List.iter
    (fun r -> Format.printf "%a@." Trace.pp_record r)
    (Trace.records cluster.Cluster.trace);
  Printf.printf "client requests completed: %d\n%!" (Cluster.total_completed cluster)

(* ------------------------------------------------------------------ *)

let run_grid scale ~batching ~failures =
  let f = f_of_scale scale in
  let clients = clients_of_scale scale in
  List.map
    (fun protocol ->
      let points =
        List.map
          (fun num_clients ->
            Scenario.run
              (Scenario.default ~failures ~protocol ~f
                 ~workload:(Scenario.Kv { batching }) ~num_clients ()))
          clients
      in
      (Scenario.protocol_name protocol, points))
    (protocols scale)

let fig2_fig3 ?csv scale =
  let clients = clients_of_scale scale in
  let all_points = ref [] in
  List.iter
    (fun batching ->
      List.iter
        (fun failures ->
          let grid = run_grid scale ~batching ~failures in
          List.iter (fun (_, ps) -> all_points := ps @ !all_points) grid;
          let tag =
            Printf.sprintf "%s, %d failures"
              (if batching then "batch=64" else "no batch")
              failures
          in
          Report.print_throughput_table
            ~title:(Printf.sprintf "Figure 2 [%s]: throughput vs clients" tag)
            ~clients ~rows:grid;
          Report.print_latency_table
            ~title:(Printf.sprintf "Figure 3 [%s]: latency vs throughput" tag)
            ~clients ~rows:grid)
        (failures_of_scale scale))
    [ true; false ];
  match csv with
  | Some path -> Report.write_csv ~path (List.rev !all_points)
  | None -> ()

(* ------------------------------------------------------------------ *)

let contract_bench scale region =
  let f = f_of_scale scale in
  let topology = (region :> Topology.kind) in
  (* The paper's contract runs are latency-bound: ~2 chunks in flight
     (378 tx/s x 254 ms / 50 tx).  Four closed-loop clients match that
     operating point. *)
  let clients = 4 in
  let duration = Engine.sec 4 in
  Printf.printf "%!\n=== Smart-contract benchmark (%s-scale WAN, f=%d) ===\n"
    (match region with `Continent -> "continent" | `World -> "world")
    f;
  let points =
    List.map
      (fun protocol ->
        Scenario.run
          (Scenario.default ~topology ~duration ~protocol ~f ~workload:Scenario.Eth
             ~num_clients:clients ()))
      [ Scenario.SBFT (c_of_scale scale); Scenario.PBFT ]
  in
  Report.print_points ~title:"transactions/second and latency" points;
  match points with
  | [ sbft; pbft ] ->
      Printf.printf
        "SBFT/PBFT: %.2fx throughput, %.2fx latency (paper: ~2x thr, ~1.5-2x lat)\n"
        (sbft.Scenario.throughput_ops /. pbft.Scenario.throughput_ops)
        (pbft.Scenario.median_latency_ms /. sbft.Scenario.median_latency_ms);
      flush stdout
  | _ -> ()

let contract_baseline () =
  Printf.printf "%!\n=== Unreplicated smart-contract execution baseline ===\n";
  (* Execute the trace against a single store, charging the virtual
     per-transaction cost the cost model assigns (calibrated to the
     paper's measured 840 tx/s on one machine). *)
  let store = Sbft_workload.Eth_workload.service.Cluster.make_store () in
  let chunks = 40 in
  let txs = ref 0 in
  let virtual_ns = ref 0 in
  for i = 1 to chunks do
    let op = Sbft_workload.Eth_workload.make_chunk ~client:0 i in
    let reqs = [ { Types.client = 0; timestamp = i; op; signature = "" } ] in
    ignore (Sbft_store.Auth_store.execute_block store ~seq:i ~ops:[ op ]);
    txs := !txs + Sbft_workload.Eth_workload.chunk_tx_count op;
    virtual_ns := !virtual_ns + Sbft_workload.Eth_workload.exec_cost reqs
  done;
  Printf.printf
    "executed %d transactions in %.2f virtual seconds: %.0f tx/s (paper: ~840 tx/s)\n"
    !txs
    (Engine.to_sec !virtual_ns)
    (float_of_int !txs /. Engine.to_sec !virtual_ns);
  flush stdout

(* ------------------------------------------------------------------ *)

let ablation_c scale =
  let f = f_of_scale scale in
  let clients = match scale with `Quick -> 16 | `Full -> 128 in
  Printf.printf "%!\n=== Ablation: redundant collectors (c sweep, f=%d) ===\n" f;
  let cs = match scale with `Quick -> [ 0; 1; 2 ] | `Full -> [ 0; 1; 2; 8 ] in
  let points =
    List.concat_map
      (fun failures ->
        List.map
          (fun c ->
            Scenario.run
              (Scenario.default ~failures ~protocol:(Scenario.SBFT c) ~f
                 ~workload:(Scenario.Kv { batching = true }) ~num_clients:clients ()))
          cs)
      [ 0; c_of_scale scale ]
  in
  Report.print_points ~title:"SBFT with c = 0,1,2,... under 0 and c failures" points

let ablation_fast_mode scale =
  let f = f_of_scale scale in
  let clients = match scale with `Quick -> 16 | `Full -> 128 in
  Printf.printf "%!\n=== Ablation: group signatures vs threshold signatures (§VIII) ===\n";
  let run name tweak =
    let p =
      Scenario.run
        (Scenario.default ~protocol:(Scenario.SBFT 0) ~f ~tweak
           ~workload:(Scenario.Kv { batching = true }) ~num_clients:clients ())
    in
    Printf.printf "%-24s %8.0f ops/s  median %6.1f ms\n" name p.Scenario.throughput_ops
      p.Scenario.median_latency_ms
  in
  run "threshold signatures" Fun.id;
  run "group signatures" (fun c -> { c with Config.use_group_sig = true });
  flush stdout

let ablation_stagger scale =
  let f = f_of_scale scale in
  let clients = match scale with `Quick -> 16 | `Full -> 128 in
  Printf.printf "%!\n=== Ablation: collector staggering (redundant collector cost) ===\n";
  let run name tweak =
    let p =
      Scenario.run
        (Scenario.default ~protocol:(Scenario.SBFT (c_of_scale scale)) ~f ~tweak
           ~workload:(Scenario.Kv { batching = true }) ~num_clients:clients ())
    in
    Printf.printf "%-24s %8.0f ops/s  median %6.1f ms  msgs %d\n" name
      p.Scenario.throughput_ops p.Scenario.median_latency_ms p.Scenario.messages
  in
  run "staggered (default)" Fun.id;
  run "all collectors active" (fun c -> { c with Config.collector_stagger = 0 });
  flush stdout

(* ------------------------------------------------------------------ *)

(* R8: the replay-divergence check.  One representative scenario per
   protocol family plus a failure run and the Ethereum workload; each is
   run twice from its seed and the trace streams must be identical. *)
let replay_scenarios () =
  let quick ?(failures = 0) protocol workload =
    Scenario.default ~failures ~warmup:(Engine.ms 200) ~duration:(Engine.ms 400)
      ~protocol ~f:1 ~workload ~num_clients:2 ()
  in
  [
    ("sbft-kv-batch", quick (Scenario.SBFT 0) (Scenario.Kv { batching = true }));
    ("sbft-c1-failure", quick ~failures:1 (Scenario.SBFT 1) (Scenario.Kv { batching = false }));
    ("linear-pbft-fast", quick Scenario.Linear_PBFT_fast (Scenario.Kv { batching = true }));
    ("pbft-kv", quick Scenario.PBFT (Scenario.Kv { batching = true }));
    ("sbft-eth", quick (Scenario.SBFT 0) Scenario.Eth);
  ]

let replay () =
  Printf.printf "%!\n=== Replay-divergence check (R8): two same-seed runs per scenario ===\n";
  let ok =
    List.fold_left
      (fun ok (name, sc) ->
        let outcome =
          Replay.run_twice ~run:(fun () -> Scenario.run_traced sc)
        in
        Printf.printf "  %-18s %s\n%!" name (Replay.pp_outcome outcome);
        match outcome with Replay.Identical _ -> ok | Replay.Diverged _ -> false)
      true (replay_scenarios ())
  in
  Printf.printf "replay: %s\n%!" (if ok then "all scenarios deterministic" else "DIVERGENCE DETECTED");
  ok
