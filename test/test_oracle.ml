(* Oracle unit tests over hand-built counterexample traces.

   Each of the six oracles gets a minimal synthetic [Oracle.obs]
   snapshot that trips it and a sibling that passes, driven through the
   pure [Oracle.evaluate_obs] — no simulator run involved.  An oracle
   weakened by refactoring (a dropped comparison, an inverted guard)
   fails these loudly instead of silently accepting whatever the
   fuzzer produces. *)

open Sbft_check

let verdict name obs =
  match
    List.find_opt
      (fun (v : Oracle.verdict) -> String.equal v.Oracle.name name)
      (Oracle.evaluate_obs obs)
  with
  | Some v -> v
  | None -> Alcotest.failf "oracle %s missing from verdict list" name

let check_trips name obs =
  let v = verdict name obs in
  if v.Oracle.pass then Alcotest.failf "oracle %s accepted the counterexample trace" name

let check_passes name obs =
  let v = verdict name obs in
  if not v.Oracle.pass then
    Alcotest.failf "oracle %s rejected the healthy trace: %s" name v.Oracle.detail

let req client timestamp op = { Sbft_core.Types.client; timestamp; op; signature = "" }

(* A healthy 4-replica cluster (f=1, c=0 shape) with one client
   (node id 4) that submitted and completed one request, executed at
   seq 1 by the two replicas we observe. *)

let healthy_replica rid =
  {
    Oracle.rid;
    last_executed = 1;
    digest = "digest-h1";
    blocks = [ (1, [ req 4 1 (Oracle.expected_op 0) ]) ];
    certified = [ (0, "digest-genesis") ];
    counters = [| 1 |];
    executed_for = [| 1 |];
  }

let healthy =
  {
    Oracle.num_replicas = 4;
    num_clients = 1;
    replicas = [ healthy_replica 0; healthy_replica 1 ];
    submitted = [| 1 |];
    completed_ops = [| 1 |];
    accepted = [| [ (1, "1") ] |];
    requests = 1;
    gst_ms = Some 1_000;
    sanitizer_violation = None;
  }

let with_replicas replicas = { healthy with Oracle.replicas }

let test_healthy_passes_all () =
  List.iter
    (fun (v : Oracle.verdict) ->
      if not v.Oracle.pass then
        Alcotest.failf "healthy trace failed %s: %s" v.Oracle.name v.Oracle.detail)
    (Oracle.evaluate_obs healthy)

(* --- sanitizer ---------------------------------------------------- *)

let test_sanitizer () =
  check_trips "sanitizer"
    { healthy with Oracle.sanitizer_violation = Some "tau quorum below threshold" };
  check_passes "sanitizer" healthy

(* --- agreement ---------------------------------------------------- *)

let test_agreement_block_divergence () =
  (* Two honest replicas committed different blocks at seq 1.  Both
     blocks are individually valid (the client really submitted both
     timestamps), so only agreement may trip. *)
  let r1 =
    {
      (healthy_replica 1) with
      Oracle.digest = "digest-h1'";
      blocks = [ (1, [ req 4 2 (Oracle.expected_op 0) ]) ];
      executed_for = [| 2 |];
      counters = [| 2 |];
    }
  in
  let trace = { (with_replicas [ healthy_replica 0; r1 ]) with Oracle.submitted = [| 2 |] } in
  check_trips "agreement" trace;
  check_passes "validity" trace;
  check_passes "at-most-once" trace;
  check_passes "agreement" healthy

let test_agreement_digest_divergence () =
  (* Same blocks, equal executed heights, different state digests. *)
  let r1 = { (healthy_replica 1) with Oracle.digest = "digest-forked" } in
  check_trips "agreement" (with_replicas [ healthy_replica 0; r1 ]);
  (* Different heights with different digests are fine: replica 1 is
     merely behind. *)
  let behind = { (healthy_replica 1) with Oracle.digest = "d0"; last_executed = 0; blocks = [] } in
  check_passes "agreement" (with_replicas [ healthy_replica 0; behind ])

(* --- validity ----------------------------------------------------- *)

let test_validity () =
  (* Executed operation from a client id that does not exist. *)
  let ghost =
    { (healthy_replica 0) with Oracle.blocks = [ (1, [ req 9 1 (Oracle.expected_op 0) ]) ] }
  in
  let behind = { (healthy_replica 1) with Oracle.last_executed = 0; blocks = []; digest = "d0" } in
  let trace = with_replicas [ ghost; behind ] in
  check_trips "validity" trace;
  check_passes "agreement" trace;
  (* Executed operation whose bytes differ from what the client
     submitted. *)
  let forged =
    { (healthy_replica 0) with Oracle.blocks = [ (1, [ req 4 1 "write x=evil" ]) ] }
  in
  check_trips "validity" (with_replicas [ forged; behind ]);
  (* A timestamp the client never issued. *)
  let replayed =
    { (healthy_replica 0) with Oracle.blocks = [ (1, [ req 4 7 (Oracle.expected_op 0) ]) ] }
  in
  check_trips "validity" (with_replicas [ replayed; behind ]);
  (* The view change's null filler is legitimate. *)
  let filler = { (healthy_replica 0) with Oracle.blocks = [ (1, [ req (-1) 0 "" ]) ] } in
  check_passes "validity" (with_replicas [ filler; behind ]);
  check_passes "validity" healthy

(* --- checkpoints -------------------------------------------------- *)

let test_checkpoints () =
  (* π-certified checkpoints at the same sequence with different
     digests — exactly what a successful rollback attack manufactures
     when the victim re-executes a divergent history. *)
  let r0 = { (healthy_replica 0) with Oracle.certified = [ (8, "cp-a") ] } in
  let r1 = { (healthy_replica 1) with Oracle.certified = [ (8, "cp-b") ] } in
  check_trips "checkpoints" (with_replicas [ r0; r1 ]);
  (* Disjoint checkpoint sequences never compare. *)
  let r1' = { (healthy_replica 1) with Oracle.certified = [ (16, "cp-b") ] } in
  check_passes "checkpoints" (with_replicas [ r0; r1' ]);
  check_passes "checkpoints" healthy

(* --- at-most-once ------------------------------------------------- *)

let test_at_most_once () =
  (* Server side: a retried request executed twice leaves the counter
     ahead of the distinct-request count. *)
  let doubled = { (healthy_replica 0) with Oracle.counters = [| 2 |] } in
  check_trips "at-most-once" (with_replicas [ doubled; healthy_replica 1 ]);
  (* Client side: the accepted reply value must equal the request's
     timestamp (the k-th counter reading). *)
  check_trips "at-most-once" { healthy with Oracle.accepted = [| [ (1, "2") ] |] };
  (* A replica that never executed is not inspected server-side. *)
  let idle =
    { (healthy_replica 1) with Oracle.last_executed = 0; blocks = []; counters = [| 0 |]; digest = "d0" }
  in
  check_passes "at-most-once" (with_replicas [ healthy_replica 0; idle ]);
  check_passes "at-most-once" healthy

(* --- liveness ----------------------------------------------------- *)

let test_liveness () =
  (* Eventually-synchronous schedule, but a client finished only some
     of its closed-loop requests. *)
  check_trips "liveness" { healthy with Oracle.completed_ops = [| 0 |] };
  (* No GST: liveness is vacuous on fully asynchronous schedules. *)
  check_passes "liveness" { healthy with Oracle.completed_ops = [| 0 |]; gst_ms = None };
  check_passes "liveness" healthy

let () =
  Alcotest.run "sbft_oracle"
    [
      ( "oracle-traces",
        [
          Alcotest.test_case "healthy trace passes all six" `Quick test_healthy_passes_all;
          Alcotest.test_case "sanitizer" `Quick test_sanitizer;
          Alcotest.test_case "agreement: block divergence" `Quick test_agreement_block_divergence;
          Alcotest.test_case "agreement: digest divergence" `Quick test_agreement_digest_divergence;
          Alcotest.test_case "validity" `Quick test_validity;
          Alcotest.test_case "checkpoints" `Quick test_checkpoints;
          Alcotest.test_case "at-most-once" `Quick test_at_most_once;
          Alcotest.test_case "liveness" `Quick test_liveness;
        ] );
    ]
