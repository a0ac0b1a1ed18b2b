(* Single-replica tests: one replica of an n=4 cluster (f=1, c=0) is
   driven message by message and its sends are captured, not delivered.
   They pin collector behaviour that a whole-cluster run only shows as
   an event count. *)

open Sbft_sim
open Sbft_core
open Sbft_crypto

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* A small window so a stable checkpoint garbage-collects early slots. *)
let config = { (Config.sbft ~f:1 ~c:0) with Config.win = 8 }
let keys, replica_keys, _clients = Keys.setup (Rng.create 7L) ~config ~num_clients:1

type live = { engine : Engine.t; replica : Replica.t; sent : (int * Types.msg) list ref }

let new_durable () =
  { Replica.wal = Sbft_store.Wal.create (); blocks = Sbft_store.Block_store.create () }

let live_replica ?(keys = keys) ?(durable = new_durable ()) me =
  let engine = Engine.create ~num_nodes:5 ~seed:1L () in
  let sent = ref [] in
  let send _ctx ~src:_ ~dst msg = sent := (dst, msg) :: !sent in
  let env = { Replica.engine; trace = Trace.create (); keys; send; exec_cost = (fun _ -> 0) } in
  let replica =
    Replica.create ~env ~my:replica_keys.(me) ~store:(Sbft_store.Kv_service.create ())
      ~durable
  in
  { engine; replica; sent }

(* Deliver [msgs] in one instant, then let 100 ms of timers run. *)
let deliver_all l msgs =
  let now = Engine.now l.engine in
  List.iter
    (fun (src, msg) ->
      Engine.dispatch l.engine ~dst:(Replica.id l.replica) ~at:now (fun ctx ->
          Replica.on_message l.replica ctx ~src msg))
    msgs;
  Engine.run_until l.engine (now + Engine.ms 100)

let digest = Sha256.digest "state"

let sign_state ~seq r =
  let msg = Types.pi_message ~seq ~digest in
  (r, Types.Sign_state { seq; digest; share = Threshold.share_sign replica_keys.(r).Keys.pi_sk ~msg })

let pi_sig ~seq =
  let msg = Types.pi_message ~seq ~digest in
  let share (k : Keys.replica_keys) = Threshold.share_sign k.pi_sk ~msg in
  Threshold.combine_exn keys.Keys.pi ~msg (Array.to_list (Array.map share replica_keys))

let exec_proofs_sent l ~seq =
  List.length
    (List.filter
       (function _, Types.Full_execute_proof p -> p.seq = seq | _ -> false)
       !(l.sent))

(* The E-collector ranked second for [seq] combines π 50 ms (one
   collector stagger) after its π-threshold of shares arrives. *)
let staggered_e_collector ~seq =
  match Collectors.exec_path_collectors keys ~view:0 ~seq with
  | first :: second :: _ when first <> second -> second
  | _ -> Alcotest.fail "no second-ranked E-collector"

(* f+1 sign-state shares arm the staggered π combine for seq 1.  Left
   alone it sends seq 1's Full_execute_proof; when a stable checkpoint
   at seq 10 collects the slot first, the callback must send nothing. *)
let test_late_pi_callback () =
  let seq = 1 in
  let me = staggered_e_collector ~seq in
  let shares = List.map (sign_state ~seq) [ 1; 2 ] in
  let l = live_replica me in
  deliver_all l shares;
  check "combined when the slot is live" true (exec_proofs_sent l ~seq > 0);
  let l = live_replica me in
  let stable = seq + config.Config.win + 1 in
  deliver_all l
    (shares @ [ (1, Types.Full_execute_proof { seq = stable; digest; pi = pi_sig ~seq:stable }) ]);
  check "the checkpoint collected the slot" true
    (Replica.last_stable l.replica - config.Config.win > seq);
  check_int "no π for a collected slot" 0 (exec_proofs_sent l ~seq)

(* ------------------------------------------------------------------ *)
(* Stash lifecycle: shares are dropped once their certificate exists;
   the signer counts an adversary observes are kept. *)

let triple = Alcotest.(triple int int int)
let quad = Alcotest.(pair (pair int int) (pair int int))
let held l seq =
  let s, t, c, p = Replica.held_shares l.replica seq in
  ((s, t), (c, p))

let null_block = [ View_change.null_request ]
let block_hash seq = Types.block_hash ~seq ~view:0 ~reqs:null_block

(* Replica [r]'s sign share for [seq]; with [~forged] its σ share is the
   invalid one a [Corrupt_shares] replica sends. *)
let sign_share ?(seq = 1) ?(forged = false) r =
  let k = replica_keys.(r) and h = block_hash seq in
  ( r,
    Types.Sign_share
      {
        seq;
        view = 0;
        sigma_share =
          (if forged then Threshold.forge_invalid_share ~signer:(r + 1)
           else Threshold.share_sign k.Keys.sigma_sk ~msg:h);
        tau_share = Threshold.share_sign k.Keys.tau_sk ~msg:h;
        replica = r;
      } )

let sigma_cert ?(seq = 1) () =
  let h = block_hash seq in
  let share (k : Keys.replica_keys) = Threshold.share_sign k.sigma_sk ~msg:h in
  Threshold.combine_exn keys.Keys.sigma ~msg:h (Array.to_list (Array.map share replica_keys))

(* The slot's σ collector gets 3 of the 4 sign shares it needs and one
   ττ share, then a σ certificate from elsewhere commits the block. *)
let test_commit_releases_sigma_tau () =
  let me = List.hd (Collectors.c_collectors keys ~view:0 ~seq:1) in
  let l = live_replica me in
  let tau_tau_share = Threshold.share_sign replica_keys.(1).Keys.tau_sk ~msg:"tt" in
  let commit_share = (1, Types.Commit { seq = 1; view = 0; share = tau_tau_share }) in
  deliver_all l
    ((0, Types.Pre_prepare { seq = 1; view = 0; reqs = null_block })
    :: commit_share :: List.map sign_share [ 0; 1; 2 ]);
  Alcotest.check quad "held before commit" ((3, 3), (1, 0)) (held l 1);
  Alcotest.check triple "counted before commit" (3, 3, 1) (Replica.obs_slot_shares l.replica 1);
  deliver_all l [ (0, Types.Full_commit_proof { seq = 1; view = 0; sigma = sigma_cert () }) ];
  check "committed" true (Replica.committed_block l.replica 1 <> None);
  Alcotest.check quad "σ and τ dropped, ττ kept" ((0, 0), (1, 0)) (held l 1);
  Alcotest.check triple "counts unchanged" (3, 3, 1) (Replica.obs_slot_shares l.replica 1);
  deliver_all l [ sign_share 3 ];
  Alcotest.check quad "a late share is not stored" ((0, 0), (1, 0)) (held l 1);
  Alcotest.check triple "but counted" (4, 4, 1) (Replica.obs_slot_shares l.replica 1)

(* One π share is stored; a verified π for the seq drops it, and a
   later share is neither stored nor combined. *)
let test_known_pi_releases_pi () =
  let l = live_replica (staggered_e_collector ~seq:1) in
  deliver_all l [ sign_state ~seq:1 1 ];
  Alcotest.check quad "one π share held" ((0, 0), (0, 1)) (held l 1);
  deliver_all l [ (2, Types.Full_execute_proof { seq = 1; digest; pi = pi_sig ~seq:1 }) ];
  Alcotest.check quad "dropped once π is known" ((0, 0), (0, 0)) (held l 1);
  deliver_all l [ sign_state ~seq:1 2; sign_state ~seq:1 3 ];
  Alcotest.check quad "later shares not stored" ((0, 0), (0, 0)) (held l 1);
  check_int "and not combined" 0 (exec_proofs_sent l ~seq:1)

(* ------------------------------------------------------------------ *)
(* §VIII group-signature mode: with [use_group_sig], the σ collector
   charges each combine as an n-of-n group combine (σ = n at c=0) until
   it has seen a failure, and at the k-of-n threshold price after. *)

let group_keys = { keys with Keys.config = { config with Config.use_group_sig = true } }

(* The σ collector of seq 1, and the next two seqs it is the only
   σ collector of, so each combine runs at once in its handler. *)
let group_collector_seqs () =
  let collector seq = Collectors.c_collectors group_keys ~view:0 ~seq in
  match collector 1 with
  | [ me ] -> (
      match List.filter (fun seq -> collector seq = [ me ]) (List.init 6 (fun i -> i + 2)) with
      | a :: b :: _ -> (me, 1, a, b)
      | _ -> Alcotest.fail "the seq-1 σ collector collects fewer than three seqs")
  | _ -> Alcotest.fail "c=0 has one σ collector"

(* The pre-prepare and [shares] for [seq], then a valid σ certificate so
   the slot commits before its slow-path timer fires; returns the
   virtual CPU charged as "combine" meanwhile. *)
let combine_charged l ~seq shares =
  Cost_model.Tally.reset ();
  deliver_all l ((0, Types.Pre_prepare { seq; view = 0; reqs = null_block }) :: shares);
  let charged = List.assoc_opt "combine" (Cost_model.Tally.snapshot ()) in
  deliver_all l [ (0, Types.Full_commit_proof { seq; view = 0; sigma = sigma_cert ~seq () }) ];
  check "committed" true (Replica.committed_block l.replica seq <> None);
  Option.value charged ~default:0

let commit_proofs_sent l ~seq =
  List.length
    (List.filter (function _, Types.Full_commit_proof p -> p.seq = seq | _ -> false) !(l.sent))

let test_group_sig_pricing () =
  let me, first, corrupt, after = group_collector_seqs () in
  let k = Config.sigma_threshold group_keys.Keys.config in
  check_int "σ = n at c=0" (Config.n config) k;
  let l = live_replica ~keys:group_keys me in
  let all ?forged seq =
    List.map (fun r -> sign_share ~seq ~forged:(forged = Some r) r) [ 0; 1; 2; 3 ]
  in
  check_int "failure-free σ combine priced n-of-n" (Cost_model.group_combine k)
    (combine_charged l ~seq:first (all first));
  check "σ proof sent" true (commit_proofs_sent l ~seq:first > 0);
  ignore (combine_charged l ~seq:corrupt (all ~forged:2 corrupt));
  check_int "no σ proof from a forged share" 0 (commit_proofs_sent l ~seq:corrupt);
  let charged = combine_charged l ~seq:after (all after) in
  check "after a failure σ combine priced k-of-n" true
    (List.mem charged [ Cost_model.bls_combine k; Cost_model.bls_combine_cached k ]);
  check "σ proof sent after the failure" true (commit_proofs_sent l ~seq:after > 0)

(* ------------------------------------------------------------------ *)
(* The ledger stores the protocol's own request list: at n=4,
   failure-free, every replica's entry for a seq is the very list the
   primary proposed, not a per-replica copy. *)

let test_ledger_shares_requests () =
  let cluster =
    Cluster.create ~seed:3L ~config:(Config.sbft ~f:1 ~c:0) ~num_clients:2
      ~topology:(fun ~num_nodes -> Topology.lan ~num_nodes)
      ~service:Cluster.kv_service ()
  in
  Cluster.start_clients cluster ~requests_per_client:10 ~make_op:(fun ~client i ->
      Sbft_store.Kv_service.put ~key:(Printf.sprintf "k%d-%d" client i) ~value:"v");
  Cluster.run_for cluster (Engine.sec 10);
  check_int "all requests completed" 20 (Cluster.total_completed cluster);
  let entries seq =
    Array.to_list
      (Array.map
         (fun (d : Replica.durable) -> Sbft_store.Block_store.find d.blocks seq)
         cluster.Cluster.durables)
  in
  let seqs = Sbft_store.Block_store.sorted_seqs cluster.Cluster.durables.(0).blocks in
  check "blocks committed" true (seqs <> []);
  List.iter
    (fun seq ->
      match entries seq with
      | Some first :: rest ->
          check (Printf.sprintf "seq %d: one request list" seq) true
            (List.for_all
               (function
                 | Some (e : Sbft_store.Block_store.entry) -> e.reqs == first.reqs
                 | None -> false)
               rest);
          Array.iter
            (fun r ->
              check (Printf.sprintf "seq %d: the committed list" seq) true
                (match Replica.committed_block r seq with
                | Some reqs -> reqs == first.reqs
                | None -> false))
            cluster.Cluster.replicas
      | _ -> Alcotest.fail "replica 0 lost a block")
    seqs

(* ------------------------------------------------------------------ *)
(* Crash-amnesia recovery: a replica rebuilt from its ledger reports the
   same commit proofs in its view-change message as before the crash. *)

let tau_cert seq =
  let combine msg =
    let share (k : Keys.replica_keys) = Threshold.share_sign k.tau_sk ~msg in
    Threshold.combine_exn keys.Keys.tau ~msg (Array.to_list (Array.map share replica_keys))
  in
  let tau = combine (block_hash seq) in
  (tau, combine (Types.tau2_message tau))

let vc_sent l =
  match List.find_map (function _, Types.View_change vc -> Some vc | _ -> None) !(l.sent) with
  | Some vc -> vc
  | None -> Alcotest.fail "no view-change sent"

(* Each slot's commit proofs, without the pre-prepare share or prepare a
   live replica also holds. *)
let commit_proofs (vc : Types.view_change) =
  List.map
    (fun (s : Types.vc_slot) ->
      ( s.slot_seq,
        (match s.fast with Types.Fast_committed _ -> s.fast | _ -> Types.No_preprepare),
        match s.slow with Types.Slow_committed _ -> s.slow | _ -> Types.No_commit ))
    vc.vc_slots

(* Seq 1 commits fast and seq 2 slow; f+1 complaints make the live
   replica send its view change, and the recovered replica sends its
   view-discovery probe. *)
let test_recovered_report () =
  let durable = new_durable () in
  let l = live_replica ~durable 1 in
  let pre_prepare seq = (0, Types.Pre_prepare { seq; view = 0; reqs = null_block }) in
  let tau, tau_tau = tau_cert 2 in
  deliver_all l
    [
      pre_prepare 1;
      pre_prepare 2;
      (0, Types.Full_commit_proof { seq = 1; view = 0; sigma = sigma_cert () });
      (0, Types.Full_commit_proof_slow { seq = 2; view = 0; tau; tau_tau });
    ];
  check_int "both executed" 2 (Replica.last_executed l.replica);
  let complaint r =
    ( r,
      Types.View_change
        { vc_replica = r; vc_view = 0; vc_ls = 0; vc_checkpoint = None; vc_slots = [] } )
  in
  deliver_all l [ complaint 2; complaint 3 ];
  let live = commit_proofs (vc_sent l) in
  check_int "the live replica reports both proofs" 2 (List.length live);
  let r = live_replica ~durable 1 in
  Engine.dispatch r.engine ~dst:1 ~at:(Engine.now r.engine) (fun ctx ->
      Replica.recover r.replica ctx);
  Engine.run_until r.engine (Engine.ms 100);
  check_int "recovery replayed both" 2 (Replica.last_executed r.replica);
  check "the recovered replica reports the same proofs" true
    (commit_proofs (vc_sent r) = live)

let () =
  Alcotest.run "replica_units"
    [
      ( "pi collector",
        [ Alcotest.test_case "late callback after gc" `Quick test_late_pi_callback ] );
      ( "stashes",
        [
          Alcotest.test_case "commit drops sigma and tau, keeps tau-tau" `Quick
            test_commit_releases_sigma_tau;
          Alcotest.test_case "known pi drops pi shares" `Quick test_known_pi_releases_pi;
        ] );
      ( "group sig",
        [ Alcotest.test_case "sigma combine pricing" `Quick test_group_sig_pricing ] );
      ( "ledger",
        [ Alcotest.test_case "replicas share each block's requests" `Quick
            test_ledger_shares_requests ] );
      ( "recovery",
        [ Alcotest.test_case "ledger replay restores commit proofs" `Quick
            test_recovered_report ] );
    ]
