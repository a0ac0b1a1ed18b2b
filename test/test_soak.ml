(* Soak: live memory must not grow with run length.  Each stack runs
   n=4 (f=1) with 8 closed-loop clients sending 64-operation KV batches
   over a LAN (~14k ops/s).  The KV key space (10,000 keys) is nearly
   full by H = 2 s and the first stable checkpoints have been collected,
   so from then on the live heap should be flat: the live words after a
   full major GC at k·H may exceed those at H by at most the band
   below.  The quick cases compare H with 3H; the slow ones (skipped by
   [--quick-tests]) compare H with 10H, to catch leaks slower than the
   3H window can show. *)

open Sbft_sim
open Sbft_core

let horizon = Engine.sec 2
let num_clients = 8

(* The band: live MiB at k·H <= (live MiB at H) × ratio + slack. *)
let band_ratio = 1.25
let band_slack_mib = 1.0

let live_mib () =
  Gc.full_major ();
  float_of_int (Gc.stat ()).Gc.live_words *. 8. /. 1_048_576.

type stack = { run_for : Engine.time -> unit; completed : unit -> int }

let sbft () =
  let c =
    Cluster.create ~seed:11L ~config:(Config.sbft ~f:1 ~c:0) ~num_clients
      ~topology:(fun ~num_nodes -> Topology.lan ~num_nodes)
      ~service:Sbft_workload.Kv_workload.service ()
  in
  Cluster.start_clients c ~requests_per_client:max_int
    ~make_op:(Sbft_workload.Kv_workload.make_op ~batching:true);
  { run_for = Cluster.run_for c; completed = (fun () -> Cluster.total_completed c) }

let pbft () =
  let open Sbft_pbft in
  let c =
    Pbft_cluster.create ~seed:11L ~config:(Config.sbft ~f:1 ~c:0) ~num_clients
      ~topology:(fun ~num_nodes -> Topology.lan ~num_nodes)
      ~service:Sbft_workload.Kv_workload.service ()
  in
  Pbft_cluster.start_clients c ~requests_per_client:max_int
    ~make_op:(Sbft_workload.Kv_workload.make_op ~batching:true);
  { run_for = Pbft_cluster.run_for c; completed = (fun () -> Pbft_cluster.total_completed c) }

let soak make ~k () =
  let s = make () in
  s.run_for horizon;
  let at_h = live_mib () in
  let done_h = s.completed () in
  s.run_for ((k - 1) * horizon);
  let at_k = live_mib () in
  (* Read after the census, so the cluster is still live during it. *)
  let done_k = s.completed () in
  Printf.printf "live %.2f MiB at H (%d requests), %.2f MiB at %dH (%d requests)\n" at_h
    done_h at_k k done_k;
  (* A stalled cluster would pass the band trivially. *)
  Alcotest.(check bool) "keeps completing requests" true (done_k > (k - 1) * done_h);
  let bound = (at_h *. band_ratio) +. band_slack_mib in
  if at_k > bound then
    Alcotest.failf "live heap grew from %.2f MiB at H to %.2f MiB at %dH (band %.2f MiB)" at_h
      at_k k bound

let () =
  Alcotest.run "soak"
    [
      ( "live heap",
        [
          Alcotest.test_case "sbft H vs 3H" `Quick (soak sbft ~k:3);
          Alcotest.test_case "pbft H vs 3H" `Quick (soak pbft ~k:3);
          Alcotest.test_case "sbft H vs 10H" `Slow (soak sbft ~k:10);
          Alcotest.test_case "pbft H vs 10H" `Slow (soak pbft ~k:10);
        ] );
    ]
