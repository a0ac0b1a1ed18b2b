(* Tests for the scale-optimized PBFT baseline: happy path, batching,
   crash tolerance, primary fail-over, checkpoint GC, agreement, and
   determinism. *)

open Sbft_sim
module Config = Sbft_core.Config
open Sbft_pbft

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let put ~client i =
  Sbft_store.Kv_service.put ~key:(Printf.sprintf "k%d-%d" client i) ~value:(string_of_int i)

let make ?(seed = 1L) ?(f = 1) ?(num_clients = 2) ?(win = 256) () =
  let config = { (Config.sbft ~f ~c:0) with Config.win } in
  Pbft_cluster.create ~seed ~config ~num_clients
    ~topology:(fun ~num_nodes -> Topology.lan ~num_nodes)
    ~service:Sbft_core.Cluster.kv_service ()

let drive ?(reqs = 20) ?(secs = 60) cluster =
  Pbft_cluster.start_clients cluster ~requests_per_client:reqs ~make_op:put;
  Pbft_cluster.run_for cluster (Engine.sec secs);
  cluster

let test_happy_path () =
  let cluster = drive (make ()) in
  check_int "all done" 40 (Pbft_cluster.total_completed cluster);
  check "agreement" true (Pbft_cluster.agreement_ok cluster);
  Array.iter
    (fun r -> check_int "no view change" 0 (Pbft_replica.view_changes_completed r))
    cluster.Pbft_cluster.replicas

let test_f2 () =
  let cluster = drive (make ~f:2 ~num_clients:3 ()) in
  check_int "all done" 60 (Pbft_cluster.total_completed cluster);
  check "agreement" true (Pbft_cluster.agreement_ok cluster)

let test_crash_backup () =
  let cluster = make () in
  Pbft_cluster.crash_replicas cluster [ 3 ];
  ignore (drive cluster);
  check_int "all done with f crashed" 40 (Pbft_cluster.total_completed cluster);
  check "agreement" true (Pbft_cluster.agreement_ok cluster)

let test_crash_primary () =
  let cluster = make () in
  Pbft_cluster.crash_replicas cluster [ 0 ];
  ignore (drive ~secs:90 cluster);
  check_int "all done after fail-over" 40 (Pbft_cluster.total_completed cluster);
  check "agreement" true (Pbft_cluster.agreement_ok cluster);
  check "view advanced" true (Pbft_replica.view cluster.Pbft_cluster.replicas.(1) >= 1)

let test_primary_crash_mid_run () =
  let cluster = make ~num_clients:4 () in
  Pbft_cluster.start_clients cluster ~requests_per_client:30 ~make_op:put;
  Engine.schedule cluster.Pbft_cluster.engine ~at:(Engine.ms 200) (fun () ->
      Engine.crash cluster.Pbft_cluster.engine 0);
  Pbft_cluster.run_for cluster (Engine.sec 90);
  check_int "all done" 120 (Pbft_cluster.total_completed cluster);
  check "agreement" true (Pbft_cluster.agreement_ok cluster)

let test_checkpoint_gc () =
  let cluster = make ~win:8 ~num_clients:4 () in
  ignore (drive ~reqs:50 cluster);
  check_int "all done" 200 (Pbft_cluster.total_completed cluster);
  check "agreement" true (Pbft_cluster.agreement_ok cluster)

let test_quadratic_message_complexity () =
  (* The defining property of the baseline: per committed block, message
     count grows quadratically with n.  Compare n=4 and n=7 under an
     identical serial workload. *)
  let run f =
    let cluster = make ~f ~num_clients:1 () in
    ignore (drive ~reqs:10 cluster);
    check_int "done" 10 (Pbft_cluster.total_completed cluster);
    let blocks =
      Pbft_replica.last_executed cluster.Pbft_cluster.replicas.(1)
    in
    float_of_int (Network.messages_sent cluster.Pbft_cluster.network)
    /. float_of_int blocks
  in
  let m4 = run 1 and m7 = run 2 in
  (* (7/4)^2 ≈ 3.06: expect at least a 2x growth in messages per block. *)
  check "quadratic growth" true (m7 /. m4 > 2.0)

let test_determinism () =
  let run () =
    let cluster = drive (make ~seed:9L ()) in
    ( Pbft_cluster.total_completed cluster,
      Stats.Latency.mean_ms cluster.Pbft_cluster.latency )
  in
  check "deterministic" true (run () = run ())

(* One backup replica (id 1 of n = 4 unless [id] says otherwise,
   quorum 3) driven message by message: the replica, a [deliver ~src
   msg] function, the messages it sent (newest first), its keys, n and
   the quorum. *)
let lone_backup ?(id = 1) () =
  let config = Config.sbft ~f:1 ~c:0 in
  let n = Config.n config and quorum = Config.quorum_bft config in
  let engine = Engine.create ~num_nodes:n ~seed:1L () in
  let keys, _, _ = Sbft_core.Keys.setup (Engine.rng engine) ~config ~num_clients:0 in
  let sent = ref [] in
  let env =
    {
      Pbft_replica.engine;
      trace = Trace.create ~enabled:false ();
      keys;
      send = (fun _ ~src:_ ~dst:_ msg -> sent := msg :: !sent);
      exec_cost = (fun _ -> 0);
    }
  in
  let r = Pbft_replica.create ~env ~id ~store:(Sbft_store.Kv_service.create ()) in
  let deliver ~src msg =
    Engine.dispatch engine ~dst:id ~at:(Engine.now engine) (fun ctx ->
        Pbft_replica.on_message r ctx ~src msg);
    Engine.run_all engine
  in
  (r, deliver, sent, keys, n, quorum)

(* A vote repeated by one sender counts once.  The prepared certificate
   needs the pre-prepare plus quorum - 1 distinct Prepares, the commit
   quorum distinct Commits. *)
let test_vote_dedup () =
  let r, deliver, sent, keys, n, quorum = lone_backup () in
  let commits () =
    List.length
      (List.filter (function Pbft_types.Commit _ -> true | _ -> false) !sent)
  in
  let reqs = [ Sbft_core.View_change.null_request ] in
  let h = Pbft_types.block_hash keys ~seq:1 ~view:0 ~reqs in
  deliver ~src:0 (Pbft_types.Pre_prepare { seq = 1; view = 0; reqs });
  let prepare replica = Pbft_types.Prepare { seq = 1; view = 0; h; replica } in
  let commit replica = Pbft_types.Commit { seq = 1; view = 0; h; replica } in
  for _ = 1 to quorum + 2 do
    deliver ~src:2 (prepare 2)
  done;
  check_int "one sender's repeated Prepare is one vote" 0 (commits ());
  deliver ~src:3 (prepare 3);
  check_int "quorum - 1 distinct Prepares: Commit to all" n (commits ());
  for _ = 1 to quorum + 2 do
    deliver ~src:2 (commit 2)
  done;
  deliver ~src:3 (commit 3);
  check_int "two distinct Commits do not execute" 0 (Pbft_replica.last_executed r);
  deliver ~src:3 (commit 3);
  check_int "nor does a third copy" 0 (Pbft_replica.last_executed r);
  deliver ~src:0 (commit 0);
  check_int "quorum distinct Commits execute" 1 (Pbft_replica.last_executed r);
  check_int "and the Commit went out once" n (commits ())

(* View 1's pre-prepare can reach a backup before view 1's New_view
   (the pbft-primary-crash replay run: the new primary proposes as soon
   as it has installed the view).  The backup keeps it and replays it
   when the New_view lands, so the slot still commits.  Only the
   view's primary is believed, and only inside the window. *)
let test_pre_prepare_before_new_view () =
  let r, deliver, sent, keys, _, _ = lone_backup ~id:2 () in
  let prepared seq =
    List.exists
      (function Pbft_types.Prepare { seq = s; view = 1; _ } -> Int.equal s seq | _ -> false)
      !sent
  in
  let reqs = [ Sbft_core.View_change.null_request ] in
  let pre_prepare seq = Pbft_types.Pre_prepare { seq; view = 1; reqs } in
  deliver ~src:1 (pre_prepare 1);
  deliver ~src:3 (pre_prepare 2);
  deliver ~src:1 (pre_prepare 257);
  check "nothing is prepared before the view is entered" false (prepared 1);
  deliver ~src:1 (Pbft_types.New_view { view = 1; pre_prepares = [] });
  check_int "view 1 entered" 1 (Pbft_replica.view r);
  check "the early pre-prepare is replayed" true (prepared 1);
  check "one from a non-primary is not" false (prepared 2);
  check "nor one beyond the window" false (prepared 257);
  let h = Pbft_types.block_hash keys ~seq:1 ~view:1 ~reqs in
  List.iter
    (fun replica -> deliver ~src:replica (Pbft_types.Prepare { seq = 1; view = 1; h; replica }))
    [ 0; 3 ];
  List.iter
    (fun replica -> deliver ~src:replica (Pbft_types.Commit { seq = 1; view = 1; h; replica }))
    [ 0; 1; 3 ];
  check_int "the slot commits and executes" 1 (Pbft_replica.last_executed r)

(* Checkpoint votes are held only until their checkpoint, or a later
   one, is stable: late votes and votes for older seqs are dropped. *)
let test_checkpoint_votes_pruned () =
  let r, deliver, _, _, _, _ = lone_backup () in
  let vote ~seq replica =
    deliver ~src:replica (Pbft_types.Checkpoint { seq; digest = ""; replica })
  in
  vote ~seq:4 0;
  vote ~seq:8 0;
  check_int "two seqs with votes" 2 (Pbft_replica.checkpoint_vote_sets r);
  vote ~seq:8 2;
  vote ~seq:8 3;
  check_int "stable at 8 drops 4 and 8" 0 (Pbft_replica.checkpoint_vote_sets r);
  vote ~seq:8 1;
  vote ~seq:4 2;
  check_int "votes at or below 8 are ignored" 0 (Pbft_replica.checkpoint_vote_sets r);
  vote ~seq:12 2;
  check_int "a vote above 8 is held" 1 (Pbft_replica.checkpoint_vote_sets r)

let () =
  Alcotest.run "sbft_pbft"
    [
      ( "pbft",
        [
          Alcotest.test_case "happy path" `Quick test_happy_path;
          Alcotest.test_case "f=2" `Quick test_f2;
          Alcotest.test_case "crash backup" `Quick test_crash_backup;
          Alcotest.test_case "crash primary" `Quick test_crash_primary;
          Alcotest.test_case "primary crash mid-run" `Quick test_primary_crash_mid_run;
          Alcotest.test_case "checkpoint gc" `Quick test_checkpoint_gc;
          Alcotest.test_case "quadratic messages" `Quick test_quadratic_message_complexity;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "vote dedup" `Quick test_vote_dedup;
          Alcotest.test_case "checkpoint votes pruned" `Quick test_checkpoint_votes_pruned;
          Alcotest.test_case "pre-prepare before new-view" `Quick
            test_pre_prepare_before_new_view;
        ] );
    ]
