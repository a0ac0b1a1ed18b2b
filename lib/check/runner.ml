open Sbft_core
open Sbft_sim

type outcome = {
  sched : Schedule.t;
  verdicts : Oracle.verdict list;
  failed : Oracle.verdict option;  (** first failing oracle, if any *)
  completed : int;
  events : int;
}

let config_of (s : Schedule.t) =
  let base = Config.sbft ~f:s.Schedule.f ~c:s.Schedule.c in
  {
    base with
    Config.win = s.Schedule.win;
    execution_acks = s.Schedule.acks;
    durable_wal = s.Schedule.wal;
    conservative_rejoin = s.Schedule.rejoin_conservative;
    mutation = s.Schedule.mutation;
    (* Weak-sigma violates agreement by design; the sanitizer would
       abort the run before the agreement oracle gets to observe the
       divergence, which is the whole point of that mutation check.
       Weak-tau/weak-vc stay sanitized: the sanitizer re-derives the
       thresholds independently of Config, so tripping it IS the
       expected detection. *)
    sanitize =
      (match s.Schedule.mutation with
      | Some Config.Weak_sigma_quorum -> false
      | None | Some (Config.Weak_tau_quorum | Config.Weak_vc_quorum) -> true);
  }

(* Replicas the schedule ever flips to a non-honest behaviour.  The
   oracles exclude these even if a later step (the post-GST quiet
   period) flips them back: state corrupted while Byzantine persists.
   An adaptive adversary's pool counts wholesale — its policy may flip
   any member at any tick, so all of them are suspect. *)
let ever_byzantine (s : Schedule.t) =
  let n = Schedule.num_replicas s in
  let static =
    List.filter_map
      (fun (step : Schedule.step) ->
        match step.Schedule.action with
        | Schedule.Byzantine (node, b)
          when node >= 0 && node < n
               && not (match b with Replica.Honest -> true | _ -> false) ->
            Some node
        | _ -> None)
      s.Schedule.steps
  in
  let pool =
    match s.Schedule.adversary with
    | None -> []
    | Some a -> List.filter (fun p -> p >= 0 && p < n) a.Schedule.pool
  in
  List.sort_uniq Int.compare (static @ pool)

let apply (cluster : Cluster.t) (sched : Schedule.t) action =
  let num_nodes = Schedule.num_nodes sched in
  let n = Schedule.num_replicas sched in
  let valid_node node = node >= 0 && node < num_nodes in
  match action with
  | Schedule.Crash node -> if valid_node node then Engine.crash cluster.Cluster.engine node
  | Schedule.Crash_amnesia node ->
      (* Replicas only: clients have no durable state to lose. *)
      if node >= 0 && node < n then Cluster.crash_amnesia cluster node
  | Schedule.Recover node -> if valid_node node then Cluster.recover cluster node
  | Schedule.Partition groups ->
      let g = Array.make num_nodes 0 in
      List.iteri
        (fun i nodes -> List.iter (fun node -> if valid_node node then g.(node) <- i) nodes)
        groups;
      Network.set_partition cluster.Cluster.network ~groups:(Some g)
  | Schedule.Heal -> Network.set_partition cluster.Cluster.network ~groups:None
  | Schedule.Set_drop p -> Network.set_drop_prob cluster.Cluster.network p
  | Schedule.Delay_link { src; dst; delay_ms } ->
      if valid_node src && valid_node dst then
        Network.set_extra_delay cluster.Cluster.network ~src ~dst (Engine.ms delay_ms)
  | Schedule.Isolate node ->
      if valid_node node then Network.isolate_node cluster.Cluster.network ~node ~num_nodes
  | Schedule.Reconnect node ->
      if valid_node node then Network.reconnect_node cluster.Cluster.network ~node ~num_nodes
  | Schedule.Byzantine (node, b) ->
      if node >= 0 && node < n then Replica.set_byzantine cluster.Cluster.replicas.(node) b
  | Schedule.Slow (node, scale) ->
      if valid_node node then Engine.set_cpu_scale cluster.Cluster.engine node scale
  | Schedule.Flap { src; dst; period_ms; up_ms } ->
      if valid_node src && valid_node dst then
        Network.set_flap cluster.Cluster.network ~src ~dst ~period:(Engine.ms period_ms)
          ~up:(Engine.ms up_ms)
  | Schedule.Unflap node ->
      if valid_node node then Network.clear_flap_node cluster.Cluster.network ~node ~num_nodes
  | Schedule.Fsync_delay (node, scale) ->
      if node >= 0 && node < n then Replica.set_fsync_scale cluster.Cluster.replicas.(node) scale
  | Schedule.Rollback (node, before) ->
      (* Disk tampering requires the victim to be down with volatile
         state gone (crash-amnesia): a live replica shares its WAL
         buffers, and a plain crash keeps memory no disk rewind can
         touch.  Misplaced rollbacks are no-ops, like other
         out-of-range actions. *)
      if node >= 0 && node < n && cluster.Cluster.amnesia.(node) then
        ignore (Cluster.rollback_replica cluster node ~before)

let run (sched : Schedule.t) =
  let config = config_of sched in
  let completions = Array.make sched.Schedule.clients [] in
  let on_complete ~client ~timestamp ~value =
    completions.(client) <- (timestamp, value) :: completions.(client)
  in
  let cluster =
    Cluster.create ~seed:sched.Schedule.seed ~on_complete ~config
      ~num_clients:sched.Schedule.clients
      ~topology:(Topology.of_kind sched.Schedule.topology)
      ~service:Cluster.kv_service ()
  in
  Cluster.start_clients cluster ~requests_per_client:sched.Schedule.requests
    ~make_op:(fun ~client _ -> Oracle.expected_op client);
  List.iter
    (fun (step : Schedule.step) ->
      Engine.schedule cluster.Cluster.engine ~at:(Engine.ms step.Schedule.at_ms) (fun () ->
          apply cluster sched step.Schedule.action))
    (Schedule.sorted_steps sched);
  (* Adaptive adversary: a recurring engine event observes the cluster
     through the restricted obs_* surface and reacts via the same fault
     primitives the static steps use.  The tick is an ordinary
     scheduled event, so replays interleave it identically. *)
  (match sched.Schedule.adversary with
  | None -> ()
  | Some spec ->
      let adv = Adversary.create spec in
      let n = Schedule.num_replicas sched in
      let apply_adv = function
        | Adversary.Flip (node, b) ->
            if node >= 0 && node < n then
              Replica.set_byzantine cluster.Cluster.replicas.(node) b
        | Adversary.Isolate node ->
            if node >= 0 && node < n then
              Network.isolate_node cluster.Cluster.network ~node
                ~num_nodes:(Schedule.num_nodes sched)
        | Adversary.Reconnect node ->
            if node >= 0 && node < n then
              Network.reconnect_node cluster.Cluster.network ~node
                ~num_nodes:(Schedule.num_nodes sched)
      in
      let until = min spec.Schedule.until_ms sched.Schedule.horizon_ms in
      let rec tick at_ms =
        if at_ms > until then
          Engine.schedule cluster.Cluster.engine ~at:(Engine.ms until) (fun () ->
              List.iter apply_adv (Adversary.cleanup adv))
        else
          Engine.schedule cluster.Cluster.engine ~at:(Engine.ms at_ms) (fun () ->
              let v =
                Adversary.view_of cluster ~pool:spec.Schedule.pool ~now_ms:at_ms
              in
              List.iter apply_adv (Adversary.observe adv v);
              tick (at_ms + spec.Schedule.every_ms))
      in
      tick (max 0 spec.Schedule.from_ms));
  let violation = ref None in
  (try Engine.run_until cluster.Cluster.engine (Engine.ms sched.Schedule.horizon_ms)
   with Sanitizer.Violation msg -> violation := Some msg);
  let ctx =
    {
      Oracle.cluster;
      sched;
      completions = Array.map List.rev completions;
      ever_byzantine = ever_byzantine sched;
      sanitizer_violation = !violation;
    }
  in
  let verdicts = Oracle.evaluate ctx in
  {
    sched;
    verdicts;
    failed = List.find_opt (fun (v : Oracle.verdict) -> not v.Oracle.pass) verdicts;
    completed = Cluster.total_completed cluster;
    events = Engine.events_executed cluster.Cluster.engine;
  }

(* ------------------------------------------------------------------ *)
(* Corpus expectations *)

let meets_expectation outcome =
  match (outcome.sched.Schedule.expect, outcome.failed) with
  | Schedule.Expect_any, _ -> Ok ()
  | Schedule.Expect_pass, None -> Ok ()
  | Schedule.Expect_pass, Some v ->
      Error (Printf.sprintf "expected pass, oracle %s failed: %s" v.Oracle.name v.Oracle.detail)
  | Schedule.Expect_fail oracle, Some v when String.equal v.Oracle.name oracle -> Ok ()
  | Schedule.Expect_fail oracle, Some v ->
      Error (Printf.sprintf "expected %s to fail but %s failed first: %s" oracle v.Oracle.name v.Oracle.detail)
  | Schedule.Expect_fail oracle, None ->
      Error (Printf.sprintf "expected oracle %s to fail, but all oracles passed" oracle)

(* [fails_same outcome] is what shrinking preserves: the run fails, on
   the same oracle as the original counterexample. *)
let fails_on (sched : Schedule.t) ~oracle =
  let outcome = run sched in
  match outcome.failed with
  | Some v -> String.equal v.Oracle.name oracle
  | None -> false
