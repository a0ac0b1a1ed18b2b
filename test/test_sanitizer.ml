(* Tests for the runtime protocol sanitizer: the quorum arithmetic and
   commit/execute bookkeeping in isolation, fault injection (wrong
   replica counts, undersized quorums, conflicting commits, execution
   before commit), and an end-to-end check that live SBFT clusters
   exercise the sanitizer on every commit without violations. *)

open Sbft_sim
open Sbft_core

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let violates name f =
  match f () with
  | () -> Alcotest.fail (name ^ ": expected Sanitizer.Violation")
  | exception Sanitizer.Violation _ -> ()

let make_san ?(f = 1) ?(c = 0) () = Sanitizer.create ~f ~c ()

(* ------------------------------------------------------------------ *)
(* Quorum arithmetic *)

let test_thresholds () =
  (* f=1, c=1: n = 3f + 2c + 1 = 6. *)
  let t = make_san ~f:1 ~c:1 () in
  check_int "sigma" 5 (Sanitizer.threshold t Sanitizer.Sigma);
  check_int "tau" 4 (Sanitizer.threshold t Sanitizer.Tau);
  check_int "pi" 2 (Sanitizer.threshold t Sanitizer.Pi);
  check_int "vc" 5 (Sanitizer.threshold t Sanitizer.Vc);
  check_int "majority" 3 (Sanitizer.threshold t Sanitizer.Majority);
  Sanitizer.check_config t ~n:6

let test_check_config_rejects_bad_n () =
  let t = make_san ~f:1 ~c:0 () in
  Sanitizer.check_config t ~n:4;
  (* A 3f+c+1-style miscount — the classic quorum-arithmetic slip. *)
  violates "n too small" (fun () -> Sanitizer.check_config t ~n:3);
  violates "n too large" (fun () -> Sanitizer.check_config t ~n:5)

let test_check_quorum () =
  let t = make_san ~f:1 ~c:0 () in
  (* n = 4; tau = 2f + c + 1 = 3. *)
  Sanitizer.check_quorum t Sanitizer.Tau ~count:3;
  Sanitizer.check_quorum t Sanitizer.Tau ~count:4;
  violates "undersized quorum" (fun () ->
      Sanitizer.check_quorum t Sanitizer.Tau ~count:2);
  violates "more shares than replicas" (fun () ->
      Sanitizer.check_quorum t Sanitizer.Sigma ~count:5);
  (* sigma = 3f + c + 1 = 4: a 2f+1-sized certificate must not pass. *)
  violates "fast path with slow-path quorum" (fun () ->
      Sanitizer.check_quorum t Sanitizer.Sigma ~count:3)

(* ------------------------------------------------------------------ *)
(* Commit / execute bookkeeping *)

let test_commit_execute_happy () =
  let t = make_san () in
  for seq = 1 to 5 do
    Sanitizer.record_commit t ~seq ~view:0 ~digest:(Printf.sprintf "d%d" seq);
    Sanitizer.record_execute t ~seq
  done;
  check "checks ran" true (Sanitizer.checks_run t > 0)

let test_conflicting_commit () =
  let t = make_san () in
  Sanitizer.record_commit t ~seq:1 ~view:0 ~digest:"block-a";
  (* Re-committing the same block (retransmission) is fine... *)
  Sanitizer.record_commit t ~seq:1 ~view:0 ~digest:"block-a";
  (* ...committing a different one at the same seq is equivocation. *)
  violates "two blocks at one seq" (fun () ->
      Sanitizer.record_commit t ~seq:1 ~view:1 ~digest:"block-b")

let test_execute_before_commit () =
  let t = make_san () in
  violates "no commit proof" (fun () -> Sanitizer.record_execute t ~seq:1)

let test_execute_out_of_order () =
  let t = make_san () in
  Sanitizer.record_commit t ~seq:1 ~view:0 ~digest:"a";
  Sanitizer.record_commit t ~seq:3 ~view:0 ~digest:"c";
  Sanitizer.record_execute t ~seq:1;
  violates "gap in execution" (fun () -> Sanitizer.record_execute t ~seq:3);
  violates "re-execution" (fun () -> Sanitizer.record_execute t ~seq:1)

let test_view_monotonic () =
  let t = make_san () in
  Sanitizer.record_view_entry t ~view:1;
  Sanitizer.record_view_entry t ~view:4;
  violates "view repeat" (fun () -> Sanitizer.record_view_entry t ~view:4);
  violates "view backwards" (fun () -> Sanitizer.record_view_entry t ~view:2)

let test_state_transfer () =
  let t = make_san () in
  (* A certified snapshot may jump the frontier forward over a gap. *)
  Sanitizer.record_state_transfer t ~seq:10;
  Sanitizer.record_commit t ~seq:11 ~view:0 ~digest:"k";
  Sanitizer.record_execute t ~seq:11;
  violates "snapshot moves frontier back" (fun () ->
      Sanitizer.record_state_transfer t ~seq:5)

let test_prune () =
  let t = make_san () in
  for seq = 1 to 4 do
    Sanitizer.record_commit t ~seq ~view:0 ~digest:(string_of_int seq);
    Sanitizer.record_execute t ~seq
  done;
  Sanitizer.prune_below t ~seq:4;
  (* Pruned slots are forgotten; later slots keep their protection. *)
  Sanitizer.record_commit t ~seq:4 ~view:0 ~digest:"4";
  violates "post-prune conflict still caught" (fun () ->
      Sanitizer.record_commit t ~seq:4 ~view:0 ~digest:"not-4")

let test_disabled_is_noop () =
  let t = Sanitizer.create ~enabled:false ~f:1 ~c:0 () in
  check "disabled" false (Sanitizer.enabled t);
  (* Every would-be violation passes silently and counts nothing. *)
  Sanitizer.check_config t ~n:17;
  Sanitizer.check_quorum t Sanitizer.Sigma ~count:0;
  Sanitizer.record_execute t ~seq:99;
  check_int "no checks" 0 (Sanitizer.checks_run t)

(* ------------------------------------------------------------------ *)
(* End-to-end: live clusters run with the sanitizer enabled *)

let put ~client i =
  Sbft_store.Kv_service.put
    ~key:(Printf.sprintf "k%d-%d" client i)
    ~value:(string_of_int i)

let drive ~config =
  let cluster =
    Cluster.create ~seed:1L ~config ~num_clients:2
      ~topology:(fun ~num_nodes -> Topology.lan ~num_nodes)
      ~service:Cluster.kv_service ()
  in
  Cluster.start_clients cluster ~requests_per_client:20 ~make_op:put;
  Cluster.run_for cluster (Engine.sec 60);
  cluster

let test_cluster_exercises_sanitizer () =
  let cluster = drive ~config:(Config.sbft ~f:1 ~c:0) in
  check "agreement" true (Cluster.agreement_ok cluster);
  check "progress" true (Cluster.total_completed cluster > 0);
  Array.iter
    (fun r ->
      let san = Replica.sanitizer r in
      check "sanitizer on" true (Sanitizer.enabled san);
      check "sanitizer exercised" true (Sanitizer.checks_run san > 0))
    cluster.Cluster.replicas

let test_cluster_slow_path_exercises_sanitizer () =
  let cluster = drive ~config:(Config.linear_pbft ~f:1) in
  check "agreement" true (Cluster.agreement_ok cluster);
  Array.iter
    (fun r -> check "sanitizer exercised" true (Sanitizer.checks_run (Replica.sanitizer r) > 0))
    cluster.Cluster.replicas

(* The one configuration without the sanitizer: the weak-sigma
   mutation, whose agreement break the oracle must get to observe. *)
let test_cluster_sanitize_off () =
  let config = { (Config.sbft ~f:1 ~c:0) with Config.mutation = Some Config.Weak_sigma_quorum } in
  let cluster = drive ~config in
  check "agreement" true (Cluster.agreement_ok cluster);
  Array.iter
    (fun r -> check_int "no checks" 0 (Sanitizer.checks_run (Replica.sanitizer r)))
    cluster.Cluster.replicas

let () =
  Alcotest.run "sbft_sanitizer"
    [
      ( "arithmetic",
        [
          Alcotest.test_case "thresholds" `Quick test_thresholds;
          Alcotest.test_case "bad n" `Quick test_check_config_rejects_bad_n;
          Alcotest.test_case "quorum sizes" `Quick test_check_quorum;
        ] );
      ( "bookkeeping",
        [
          Alcotest.test_case "commit/execute" `Quick test_commit_execute_happy;
          Alcotest.test_case "conflicting commit" `Quick test_conflicting_commit;
          Alcotest.test_case "execute before commit" `Quick test_execute_before_commit;
          Alcotest.test_case "out-of-order execute" `Quick test_execute_out_of_order;
          Alcotest.test_case "view monotonic" `Quick test_view_monotonic;
          Alcotest.test_case "state transfer" `Quick test_state_transfer;
          Alcotest.test_case "prune" `Quick test_prune;
          Alcotest.test_case "disabled" `Quick test_disabled_is_noop;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "fast path" `Quick test_cluster_exercises_sanitizer;
          Alcotest.test_case "slow path" `Quick test_cluster_slow_path_exercises_sanitizer;
          Alcotest.test_case "opt-out" `Quick test_cluster_sanitize_off;
        ] );
    ]
