(* Unit and property tests for the dual-mode view-change safe-value
   computation (§V-G) — the correctness heart of SBFT.  These construct
   synthetic view-change messages (including Byzantine ones with forged
   or stale certificates) and check the decisions against the paper's
   Lemmas VI.2/VI.3. *)

open Sbft_core
open Sbft_crypto

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let qtest name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count:200 gen prop)

(* f=1, c=0: n=4, σ-threshold 4, τ-threshold 3, π-threshold 2, VC quorum 3. *)
let config = Config.sbft ~f:1 ~c:0
let keys, replica_keys, _clients =
  Keys.setup (Sbft_sim.Rng.create 7L) ~config ~num_clients:1

let req tag : Types.request =
  { client = -1; timestamp = 0; op = "op-" ^ tag; signature = "" }

let reqs_a = [ req "a" ]
let reqs_b = [ req "b" ]

let hash ~seq ~view reqs = Types.block_hash ~seq ~view ~reqs

(* Build real certificates using the actual signing keys. *)
let tau_sig ~seq ~view reqs =
  let h = hash ~seq ~view reqs in
  let shares =
    Array.to_list
      (Array.map (fun (k : Keys.replica_keys) -> Threshold.share_sign k.tau_sk ~msg:h)
         replica_keys)
  in
  Threshold.combine_exn keys.Keys.tau ~msg:h shares

let tau_tau_sig tau =
  let msg = Types.tau2_message tau in
  let shares =
    Array.to_list
      (Array.map (fun (k : Keys.replica_keys) -> Threshold.share_sign k.tau_sk ~msg)
         replica_keys)
  in
  Threshold.combine_exn keys.Keys.tau ~msg shares

let sigma_sig ~seq ~view reqs =
  let h = hash ~seq ~view reqs in
  let shares =
    Array.to_list
      (Array.map (fun (k : Keys.replica_keys) -> Threshold.share_sign k.sigma_sk ~msg:h)
         replica_keys)
  in
  Threshold.combine_exn keys.Keys.sigma ~msg:h shares

let sigma_share ~replica ~seq ~view reqs =
  Threshold.share_sign replica_keys.(replica).Keys.sigma_sk ~msg:(hash ~seq ~view reqs)

let pi_sig ~seq ~digest =
  let msg = Types.pi_message ~seq ~digest in
  let shares =
    Array.to_list
      (Array.map (fun (k : Keys.replica_keys) -> Threshold.share_sign k.pi_sk ~msg)
         replica_keys)
  in
  Threshold.combine_exn keys.Keys.pi ~msg shares

let vc ?(ls = 0) ?(checkpoint = None) ~replica slots : Types.view_change =
  { vc_replica = replica; vc_view = 0; vc_ls = ls; vc_checkpoint = checkpoint;
    vc_slots = slots }

let slot seq slow fast : Types.vc_slot = { slot_seq = seq; slow; fast }

let decide msgs = View_change.compute ~keys msgs

let decision_for seq msgs =
  let _, ds = decide msgs in
  List.assoc_opt seq ds

(* ------------------------------------------------------------------ *)

let test_empty_quorum () =
  let msgs = [ vc ~replica:0 []; vc ~replica:1 []; vc ~replica:2 [] ] in
  let ls, ds = decide msgs in
  check_int "ls 0" 0 ls;
  check_int "no decisions" 0 (List.length ds)

let test_slow_commit_decides () =
  let tau = tau_sig ~seq:1 ~view:0 reqs_a in
  let tau_tau = tau_tau_sig tau in
  let cert = Types.Slow_committed { tau; tau_tau; view = 0; reqs = reqs_a } in
  let msgs =
    [ vc ~replica:0 [ slot 1 cert Types.No_preprepare ];
      vc ~replica:1 []; vc ~replica:2 [] ]
  in
  match decision_for 1 msgs with
  | Some (View_change.Decide { cert = Types.Cert_slow _; reqs; _ }) ->
      check "reqs a" true (reqs = reqs_a)
  | _ -> Alcotest.fail "expected a slow-certificate decision"

let test_fast_commit_decides () =
  let sigma = sigma_sig ~seq:1 ~view:0 reqs_a in
  let cert = Types.Fast_committed { sigma; view = 0; reqs = reqs_a } in
  let msgs =
    [ vc ~replica:0 [ slot 1 Types.No_commit cert ];
      vc ~replica:1 []; vc ~replica:2 [] ]
  in
  match decision_for 1 msgs with
  | Some (View_change.Decide { cert = Types.Cert_fast _; reqs; _ }) ->
      check "reqs a" true (reqs = reqs_a)
  | _ -> Alcotest.fail "expected a fast-certificate decision"

let test_prepared_adopted () =
  let tau = tau_sig ~seq:1 ~view:2 reqs_a in
  let cert = Types.Slow_prepared { tau; view = 2; reqs = reqs_a } in
  let msgs =
    [ vc ~replica:0 [ slot 1 cert Types.No_preprepare ];
      vc ~replica:1 []; vc ~replica:2 [] ]
  in
  check "adopt prepared" true (decision_for 1 msgs = Some (View_change.Adopt reqs_a))

let test_highest_prepare_wins () =
  let tau1 = tau_sig ~seq:1 ~view:1 reqs_a in
  let tau2 = tau_sig ~seq:1 ~view:3 reqs_b in
  let msgs =
    [
      vc ~replica:0
        [ slot 1 (Types.Slow_prepared { tau = tau1; view = 1; reqs = reqs_a }) Types.No_preprepare ];
      vc ~replica:1
        [ slot 1 (Types.Slow_prepared { tau = tau2; view = 3; reqs = reqs_b }) Types.No_preprepare ];
      vc ~replica:2 [];
    ]
  in
  check "higher view wins" true (decision_for 1 msgs = Some (View_change.Adopt reqs_b))

let test_fast_value_adopted () =
  (* f+c+1 = 2 pre-prepare shares for the same value at view >= 1. *)
  let make r v =
    Types.Fast_preprepared { share = sigma_share ~replica:r ~seq:1 ~view:v reqs_a; view = v; reqs = reqs_a }
  in
  let msgs =
    [
      vc ~replica:0 [ slot 1 Types.No_commit (make 0 1) ];
      vc ~replica:1 [ slot 1 Types.No_commit (make 1 2) ];
      vc ~replica:2 [];
    ]
  in
  check "adopt fast value" true (decision_for 1 msgs = Some (View_change.Adopt reqs_a))

let test_single_share_not_enough () =
  let fast =
    Types.Fast_preprepared { share = sigma_share ~replica:0 ~seq:1 ~view:1 reqs_a; view = 1; reqs = reqs_a }
  in
  let msgs =
    [ vc ~replica:0 [ slot 1 Types.No_commit fast ]; vc ~replica:1 []; vc ~replica:2 [] ]
  in
  check "one share -> null" true (decision_for 1 msgs = Some View_change.Fill_null)

let test_slow_preferred_on_tie () =
  (* v* = v̂ = 2: the prepare certificate must win (the paper's
     tie-breaking prefers the slow-path proof). *)
  let tau = tau_sig ~seq:1 ~view:2 reqs_a in
  let fast r = Types.Fast_preprepared { share = sigma_share ~replica:r ~seq:1 ~view:2 reqs_b; view = 2; reqs = reqs_b } in
  let msgs =
    [
      vc ~replica:0 [ slot 1 (Types.Slow_prepared { tau; view = 2; reqs = reqs_a }) (fast 0) ];
      vc ~replica:1 [ slot 1 Types.No_commit (fast 1) ];
      vc ~replica:2 [ slot 1 Types.No_commit (fast 2) ];
    ]
  in
  check "slow preferred" true (decision_for 1 msgs = Some (View_change.Adopt reqs_a))

let test_fast_beats_lower_prepare () =
  let tau = tau_sig ~seq:1 ~view:1 reqs_a in
  let fast r = Types.Fast_preprepared { share = sigma_share ~replica:r ~seq:1 ~view:3 reqs_b; view = 3; reqs = reqs_b } in
  let msgs =
    [
      vc ~replica:0 [ slot 1 (Types.Slow_prepared { tau; view = 1; reqs = reqs_a }) (fast 0) ];
      vc ~replica:1 [ slot 1 Types.No_commit (fast 1) ];
      vc ~replica:2 [ slot 1 Types.No_commit (fast 2) ];
    ]
  in
  check "fast at higher view wins" true (decision_for 1 msgs = Some (View_change.Adopt reqs_b))

let test_ambiguous_fast_ignored () =
  (* Two distinct values each with f+c+1 shares at the same top view:
     no unique fast value, and with no prepare either the slot is null. *)
  let fa r = Types.Fast_preprepared { share = sigma_share ~replica:r ~seq:1 ~view:2 reqs_a; view = 2; reqs = reqs_a } in
  let fb r = Types.Fast_preprepared { share = sigma_share ~replica:r ~seq:1 ~view:2 reqs_b; view = 2; reqs = reqs_b } in
  let msgs =
    [
      vc ~replica:0 [ slot 1 Types.No_commit (fa 0) ];
      vc ~replica:1 [ slot 1 Types.No_commit (fa 1) ];
      vc ~replica:2 [ slot 1 Types.No_commit (fb 2) ];
      vc ~replica:3 [ slot 1 Types.No_commit (fb 3) ];
    ]
  in
  check "ambiguous -> null" true (decision_for 1 msgs = Some View_change.Fill_null)

let test_forged_certificates_ignored () =
  (* A Byzantine replica claims prepares with invalid signatures; the
     computation must ignore them. *)
  let bogus_tau = Field.of_int 0xBAD in
  let msgs =
    [
      vc ~replica:0
        [ slot 1 (Types.Slow_prepared { tau = bogus_tau; view = 9; reqs = reqs_b }) Types.No_preprepare ];
      vc ~replica:1 []; vc ~replica:2 [];
    ]
  in
  check "forged ignored -> null" true (decision_for 1 msgs = Some View_change.Fill_null)

let test_share_signer_binding () =
  (* A pre-prepare share must come from the message's sender. *)
  let share = sigma_share ~replica:2 ~seq:1 ~view:1 reqs_a in
  let cert = Types.Fast_preprepared { share; view = 1; reqs = reqs_a } in
  let m = vc ~replica:0 [ slot 1 Types.No_commit cert ] in
  check "stolen share rejected" false (View_change.validate_message ~keys m);
  let own = Types.Fast_preprepared { share = sigma_share ~replica:0 ~seq:1 ~view:1 reqs_a; view = 1; reqs = reqs_a } in
  check "own share accepted" true
    (View_change.validate_message ~keys (vc ~replica:0 [ slot 1 Types.No_commit own ]))

let test_checkpoint_selection () =
  let digest = Sha256.digest "state-5" in
  let pi = pi_sig ~seq:5 ~digest in
  let good = vc ~ls:5 ~checkpoint:(Some (pi, digest)) ~replica:0 [] in
  let fake = vc ~ls:9 ~checkpoint:(Some (Field.of_int 1, digest)) ~replica:1 [] in
  let plain = vc ~replica:2 [] in
  check_int "valid checkpoint wins" 5 (View_change.select_stable ~keys [ good; fake; plain ]);
  check "invalid checkpoint rejected in validation" false
    (View_change.validate_message ~keys fake);
  check "genesis ok" true (View_change.validate_message ~keys plain)

let test_validate_window () =
  let cert = Types.Fast_preprepared { share = sigma_share ~replica:0 ~seq:999 ~view:0 reqs_a; view = 0; reqs = reqs_a } in
  let m = vc ~replica:0 [ slot 999 Types.No_commit cert ] in
  check "slot beyond window rejected" false (View_change.validate_message ~keys m)

let test_decision_reqs () =
  check "null fill" true
    (View_change.decision_reqs View_change.Fill_null = [ View_change.null_request ]);
  check "adopt" true (View_change.decision_reqs (View_change.Adopt reqs_a) = reqs_a)

let test_multi_slot_window () =
  (* A window with a committed slot, a prepared slot, a gap, and a
     fast-candidate slot: each decided independently; the gap is
     filled with null. *)
  let tau1 = tau_sig ~seq:1 ~view:0 reqs_a in
  let tau_tau1 = tau_tau_sig tau1 in
  let tau2 = tau_sig ~seq:2 ~view:1 reqs_b in
  let fast4 r v =
    Types.Fast_preprepared
      { share = sigma_share ~replica:r ~seq:4 ~view:v reqs_a; view = v; reqs = reqs_a }
  in
  let msgs =
    [
      vc ~replica:0
        [ slot 1 (Types.Slow_committed { tau = tau1; tau_tau = tau_tau1; view = 0; reqs = reqs_a })
            Types.No_preprepare;
          slot 4 Types.No_commit (fast4 0 2) ];
      vc ~replica:1
        [ slot 2 (Types.Slow_prepared { tau = tau2; view = 1; reqs = reqs_b })
            Types.No_preprepare;
          slot 4 Types.No_commit (fast4 1 2) ];
      vc ~replica:2 [];
    ]
  in
  let ls, ds = decide msgs in
  check_int "ls" 0 ls;
  check_int "decisions up to slot 4" 4 (List.length ds);
  (match List.assoc 1 ds with
  | View_change.Decide { cert = Types.Cert_slow _; reqs; _ } ->
      check "slot1 committed" true (reqs = reqs_a)
  | _ -> Alcotest.fail "slot 1 should decide");
  check "slot2 adopted" true (List.assoc 2 ds = View_change.Adopt reqs_b);
  check "slot3 null (gap)" true (List.assoc 3 ds = View_change.Fill_null);
  check "slot4 fast adopted" true (List.assoc 4 ds = View_change.Adopt reqs_a)

let test_slots_above_checkpoint_only () =
  (* Slots at or below the selected stable checkpoint are not decided. *)
  let digest = Sha256.digest "state-3" in
  let pi = pi_sig ~seq:3 ~digest in
  let tau = tau_sig ~seq:2 ~view:0 reqs_a in
  let msgs =
    [
      vc ~ls:3 ~checkpoint:(Some (pi, digest)) ~replica:0 [];
      vc ~replica:1
        [ slot 2 (Types.Slow_prepared { tau; view = 0; reqs = reqs_a }) Types.No_preprepare ];
      vc ~replica:2 [];
    ]
  in
  let ls, ds = decide msgs in
  check_int "stable respected" 3 ls;
  check "no decisions below ls" true (List.for_all (fun (s, _) -> s > 3) ds)

let test_exactly_quorum_adopts () =
  (* The adoption threshold is exact: f+c+1 = 2 pre-prepare shares adopt
     a fast value, and the quorum set itself is exactly quorum_vc = 3
     messages with no slack.  Dropping either witness message falls
     below the threshold and the slot goes null. *)
  let mk r v =
    Types.Fast_preprepared
      { share = sigma_share ~replica:r ~seq:1 ~view:v reqs_a; view = v; reqs = reqs_a }
  in
  let w0 = vc ~replica:0 [ slot 1 Types.No_commit (mk 0 2) ] in
  let w1 = vc ~replica:1 [ slot 1 Types.No_commit (mk 1 2) ] in
  let empty = vc ~replica:2 [] in
  check "exact threshold adopts" true
    (decision_for 1 [ w0; w1; empty ] = Some (View_change.Adopt reqs_a));
  check "one witness below threshold -> null" true
    (decision_for 1 [ w0; empty; vc ~replica:3 [] ] = Some View_change.Fill_null);
  (* v̂ is the (f+c+1)-th largest view among the value's shares: with
     shares at views 3 and 1, v̂ = 1, so a prepare certificate at view 2
     must win even though one share sits at view 3. *)
  let tau = tau_sig ~seq:1 ~view:2 reqs_b in
  let msgs =
    [
      vc ~replica:0 [ slot 1 Types.No_commit (mk 0 3) ];
      vc ~replica:1 [ slot 1 Types.No_commit (mk 1 1) ];
      vc ~replica:2
        [ slot 1 (Types.Slow_prepared { tau; view = 2; reqs = reqs_b }) Types.No_preprepare ];
    ]
  in
  check "kth-largest view bounds the fast value" true
    (decision_for 1 msgs = Some (View_change.Adopt reqs_b))

let test_duplicate_senders_deduped () =
  (* A Byzantine replica relays two view-change messages under the same
     sender id, each contributing a share for reqs_b: counted twice they
     would fake the f+c+1 = 2 threshold and adopt reqs_b.  [compute]
     must count distinct replicas only (first message wins), leaving a
     single share -> null. *)
  let mk v =
    Types.Fast_preprepared
      { share = sigma_share ~replica:0 ~seq:1 ~view:v reqs_b; view = v; reqs = reqs_b }
  in
  let first = vc ~replica:0 [ slot 1 Types.No_commit (mk 2) ] in
  let second = vc ~replica:0 [ slot 1 Types.No_commit (mk 3) ] in
  let msgs = [ first; second; vc ~replica:1 []; vc ~replica:2 [] ] in
  check "duplicate sender not double-counted" true
    (decision_for 1 msgs = Some View_change.Fill_null);
  (* The honest two-sender version of the same evidence does adopt —
     the dedup is what separates the cases. *)
  let honest =
    [
      vc ~replica:0 [ slot 1 Types.No_commit (mk 2) ];
      vc ~replica:1
        [ slot 1 Types.No_commit
            (Types.Fast_preprepared
               { share = sigma_share ~replica:1 ~seq:1 ~view:3 reqs_b; view = 3; reqs = reqs_b }) ];
      vc ~replica:2 [];
    ]
  in
  check "distinct senders adopt" true (decision_for 1 honest = Some (View_change.Adopt reqs_b))

let test_stale_view_entries_ignored () =
  (* A laggard (or Stale_view_change Byzantine) replica contributes
     entries anchored below the quorum's certified checkpoint and a
     stale low-view prepare for a conflicting value.  The stable
     sequence must come from the valid checkpoint, slots at or below it
     are not decided, and above it the fresher prepare wins. *)
  let digest = Sha256.digest "state-3" in
  let pi = pi_sig ~seq:3 ~digest in
  let stale_tau = tau_sig ~seq:2 ~view:0 reqs_b in
  let stale_above = tau_sig ~seq:4 ~view:0 reqs_b in
  let fresh = tau_sig ~seq:4 ~view:2 reqs_a in
  let msgs =
    [
      vc ~ls:3 ~checkpoint:(Some (pi, digest)) ~replica:0
        [ slot 4 (Types.Slow_prepared { tau = fresh; view = 2; reqs = reqs_a })
            Types.No_preprepare ];
      vc ~replica:1
        [ slot 2 (Types.Slow_prepared { tau = stale_tau; view = 0; reqs = reqs_b })
            Types.No_preprepare;
          slot 4 (Types.Slow_prepared { tau = stale_above; view = 0; reqs = reqs_b })
            Types.No_preprepare ];
      vc ~replica:2 [];
    ]
  in
  let ls, ds = decide msgs in
  check_int "checkpoint anchors ls" 3 ls;
  check "stale below-ls slot dropped" true (List.assoc_opt 2 ds = None);
  check "fresh prepare beats stale one" true
    (List.assoc_opt 4 ds = Some (View_change.Adopt reqs_a))

(* ------------------------------------------------------------------ *)
(* Property: a value committed on either path survives any view change
   quorum that includes its honest witnesses. *)

let prop_committed_value_survives =
  qtest "committed value survives random VC quorums"
    QCheck2.Gen.(triple (int_range 0 1000) bool (int_range 0 3))
    (fun (seed, fast_path, byz_replica) ->
      let rng = Sbft_sim.Rng.create (Int64.of_int (seed + 99)) in
      let cview = 1 + Sbft_sim.Rng.int rng 3 in
      (* Honest witnesses per the commit quorum: slow commit -> f+c+1=2
         hold prepare certs; fast commit -> 2f+c+1=3 hold pre-prepare
         shares at view >= cview. *)
      let honest = [ 0; 1; 2 ] in
      let mk_honest r =
        if fast_path then begin
          let share = sigma_share ~replica:r ~seq:1 ~view:cview reqs_a in
          vc ~replica:r
            [ slot 1 Types.No_commit
                (Types.Fast_preprepared { share; view = cview; reqs = reqs_a }) ]
        end
        else begin
          let tau = tau_sig ~seq:1 ~view:cview reqs_a in
          vc ~replica:r
            [ slot 1 (Types.Slow_prepared { tau; view = cview; reqs = reqs_a })
                Types.No_preprepare ]
        end
      in
      (* The Byzantine member sends stale or junk info, possibly for a
         conflicting value at a lower view. *)
      let byz =
        let stale_view = max 0 (cview - 1) in
        let share = sigma_share ~replica:byz_replica ~seq:1 ~view:stale_view reqs_b in
        vc ~replica:byz_replica
          [ slot 1 Types.No_commit
              (Types.Fast_preprepared { share; view = stale_view; reqs = reqs_b }) ]
      in
      let msgs = List.map mk_honest honest @ [ byz ] in
      (* Any quorum (3 of these 4) that contains the honest witnesses. *)
      let _, ds = decide msgs in
      match List.assoc_opt 1 ds with
      | Some (View_change.Adopt reqs) -> reqs = reqs_a
      | Some (View_change.Decide { reqs; _ }) -> reqs = reqs_a
      | _ -> false)

let prop_decisions_deterministic =
  (* The computation must be a pure function of the message SET: message
     order must not matter (replicas independently recompute it from the
     new-view payload). *)
  qtest "order-independence of the quorum set"
    QCheck2.Gen.(int_range 0 500)
    (fun seed ->
      let rng = Sbft_sim.Rng.create (Int64.of_int (seed + 3)) in
      let cview = Sbft_sim.Rng.int rng 3 in
      let share r = sigma_share ~replica:r ~seq:1 ~view:cview reqs_a in
      let tau = tau_sig ~seq:1 ~view:cview reqs_b in
      let msgs =
        [
          vc ~replica:0
            [ slot 1 Types.No_commit
                (Types.Fast_preprepared { share = share 0; view = cview; reqs = reqs_a }) ];
          vc ~replica:1
            [ slot 1 (Types.Slow_prepared { tau; view = cview; reqs = reqs_b })
                Types.No_preprepare ];
          vc ~replica:2
            [ slot 1 Types.No_commit
                (Types.Fast_preprepared { share = share 2; view = cview; reqs = reqs_a }) ];
          vc ~replica:3 [];
        ]
      in
      let arr = Array.of_list msgs in
      Sbft_sim.Rng.shuffle rng arr;
      decide msgs = decide (Array.to_list arr))

(* ------------------------------------------------------------------ *)
(* The report a live replica sends.  One replica of the cluster above
   is driven message by message; its sends are captured, not
   delivered.  f+1 complaints for a new target view make it broadcast
   its own View_change, whose per-slot report is checked after each
   step. *)

let me = 2

type live = {
  engine : Sbft_sim.Engine.t;
  replica : Replica.t;
  durable : Replica.durable;
  sent : Types.view_change list ref;  (* newest first *)
}

let live_replica ?(engine = Sbft_sim.Engine.create ~num_nodes:5 ~seed:1L ())
    ?(durable =
      { Replica.wal = Sbft_store.Wal.create (); blocks = Sbft_store.Block_store.create () })
    () =
  let sent = ref [] in
  let send _ctx ~src:_ ~dst msg =
    match msg with
    | Types.View_change vc when dst = me -> sent := vc :: !sent
    | _ -> ()
  in
  let env =
    { Replica.engine; trace = Sbft_sim.Trace.create (); keys; send; exec_cost = (fun _ -> 0) }
  in
  let replica =
    Replica.create ~env ~my:replica_keys.(me) ~store:(Sbft_store.Kv_service.create ())
      ~durable
  in
  { engine; replica; durable; sent }

let run_on l f =
  let now = Sbft_sim.Engine.now l.engine in
  Sbft_sim.Engine.dispatch l.engine ~dst:me ~at:now f;
  Sbft_sim.Engine.run_until l.engine (now + Sbft_sim.Engine.ms 100)

let deliver l ~src msg = run_on l (fun ctx -> Replica.on_message l.replica ctx ~src msg)

(* Complaints from replicas 0 and 1 about [target - 1]: the replica
   joins and broadcasts the report this returns. *)
let report l ~target =
  let before = List.length !(l.sent) in
  List.iter
    (fun r ->
      deliver l ~src:r
        (Types.View_change
           { vc_replica = r; vc_view = target - 1; vc_ls = 0; vc_checkpoint = None; vc_slots = [] }))
    [ 0; 1 ];
  match !(l.sent) with
  | vc :: _ when List.length !(l.sent) = before + 1 ->
      check "own report validates" true (View_change.validate_message ~keys vc);
      vc
  | _ -> Alcotest.fail "no View_change broadcast"

let check_slot what (vc : Types.view_change) ~seq ~slow ~fast =
  match List.find_opt (fun (s : Types.vc_slot) -> s.slot_seq = seq) vc.vc_slots with
  | Some s ->
      check (what ^ ": slow report") true (s.slow = slow);
      check (what ^ ": fast report") true (s.fast = fast)
  | None -> Alcotest.fail (what ^ ": slot missing from the report")

let preprepared seq reqs =
  Types.Fast_preprepared
    { share = sigma_share ~replica:me ~seq ~view:0 reqs; view = 0; reqs }

let prepared seq reqs =
  Types.Slow_prepared { tau = tau_sig ~seq ~view:0 reqs; view = 0; reqs }

let accept l seq reqs =
  deliver l ~src:0 (Types.Pre_prepare { seq; view = 0; reqs })

let prepare l seq reqs =
  deliver l ~src:0 (Types.Prepare { seq; view = 0; tau = tau_sig ~seq ~view:0 reqs })

let slow_commit l seq reqs =
  let tau = tau_sig ~seq ~view:0 reqs in
  let tau_tau = tau_tau_sig tau in
  deliver l ~src:0 (Types.Full_commit_proof_slow { seq; view = 0; tau; tau_tau });
  Types.Slow_committed { tau; tau_tau; view = 0; reqs }

let test_live_report () =
  let reqs_c = [ req "c" ] in
  let l = live_replica () in
  accept l 1 reqs_a;
  accept l 2 reqs_b;
  accept l 3 reqs_c;
  let vc = report l ~target:1 in
  check_slot "pre-prepare" vc ~seq:1 ~slow:Types.No_commit ~fast:(preprepared 1 reqs_a);
  prepare l 1 reqs_a;
  prepare l 2 reqs_b;
  let vc = report l ~target:2 in
  check_slot "prepare" vc ~seq:1 ~slow:(prepared 1 reqs_a) ~fast:(preprepared 1 reqs_a);
  let sigma = sigma_sig ~seq:1 ~view:0 reqs_a in
  deliver l ~src:0 (Types.Full_commit_proof { seq = 1; view = 0; sigma });
  let fast_committed = Types.Fast_committed { sigma; view = 0; reqs = reqs_a } in
  let vc = report l ~target:3 in
  check_slot "fast commit" vc ~seq:1 ~slow:(prepared 1 reqs_a) ~fast:fast_committed;
  let committed_b = slow_commit l 2 reqs_b in
  (* Slot 3 is slow-committed before its prepare arrives: the late
     prepare must not downgrade the report. *)
  let committed_c = slow_commit l 3 reqs_c in
  prepare l 3 reqs_c;
  let vc = report l ~target:4 in
  check_slot "slow commit" vc ~seq:2 ~slow:committed_b ~fast:(preprepared 2 reqs_b);
  check_slot "late prepare" vc ~seq:3 ~slow:committed_c ~fast:(preprepared 3 reqs_c);
  check_slot "slow commit, other slot" vc ~seq:1 ~slow:(prepared 1 reqs_a)
    ~fast:fast_committed

(* Recovery rebuilds the report from the WAL: the accepted pre-prepare
   re-signs its share, and the accepted prepare comes back as
   Slow_prepared in the rejoin probe. *)
let test_recovered_report () =
  let l = live_replica () in
  accept l 1 reqs_a;
  prepare l 1 reqs_a;
  Sbft_store.Wal.drop_pending l.durable.Replica.wal;
  let r = live_replica ~engine:l.engine ~durable:l.durable () in
  run_on r (fun ctx -> Replica.recover r.replica ctx);
  match !(r.sent) with
  | [ vc ] ->
      check_slot "recovered" vc ~seq:1 ~slow:(prepared 1 reqs_a) ~fast:(preprepared 1 reqs_a)
  | _ -> Alcotest.fail "expected one rejoin probe"

let () =
  Alcotest.run "sbft_view_change"
    [
      ( "safe-values",
        [
          Alcotest.test_case "empty quorum" `Quick test_empty_quorum;
          Alcotest.test_case "slow commit decides" `Quick test_slow_commit_decides;
          Alcotest.test_case "fast commit decides" `Quick test_fast_commit_decides;
          Alcotest.test_case "prepared adopted" `Quick test_prepared_adopted;
          Alcotest.test_case "highest prepare wins" `Quick test_highest_prepare_wins;
          Alcotest.test_case "fast value adopted" `Quick test_fast_value_adopted;
          Alcotest.test_case "single share insufficient" `Quick test_single_share_not_enough;
          Alcotest.test_case "slow preferred on tie" `Quick test_slow_preferred_on_tie;
          Alcotest.test_case "fast beats lower prepare" `Quick test_fast_beats_lower_prepare;
          Alcotest.test_case "ambiguous fast ignored" `Quick test_ambiguous_fast_ignored;
          Alcotest.test_case "forged certs ignored" `Quick test_forged_certificates_ignored;
          Alcotest.test_case "share signer binding" `Quick test_share_signer_binding;
          Alcotest.test_case "checkpoint selection" `Quick test_checkpoint_selection;
          Alcotest.test_case "window validation" `Quick test_validate_window;
          Alcotest.test_case "decision reqs" `Quick test_decision_reqs;
          Alcotest.test_case "multi-slot window" `Quick test_multi_slot_window;
          Alcotest.test_case "checkpoint bounds slots" `Quick test_slots_above_checkpoint_only;
          Alcotest.test_case "exactly-quorum adoption" `Quick test_exactly_quorum_adopts;
          Alcotest.test_case "duplicate senders deduped" `Quick test_duplicate_senders_deduped;
          Alcotest.test_case "stale-view entries ignored" `Quick test_stale_view_entries_ignored;
        ] );
      ( "live-report",
        [
          Alcotest.test_case "each step's report" `Quick test_live_report;
          Alcotest.test_case "recovered prepare" `Quick test_recovered_report;
        ] );
      ("properties", [ prop_committed_value_survives; prop_decisions_deterministic ]);
    ]
