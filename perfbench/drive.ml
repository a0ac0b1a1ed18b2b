(* One repetition of a workload: build the cluster from pre-generated
   payloads, run it to the scenario's horizon, and read every output.
   The untraced run goes through the library constructors
   ([Cluster.create], [Pbft_cluster.create]); the traced run swaps in
   {!Mirror}. *)

open Sbft_sim
open Sbft_core
open Sbft_harness
module Pbft_cluster = Sbft_pbft.Pbft_cluster
module Pbft_replica = Sbft_pbft.Pbft_replica

let now_s () = Int64.to_float (Monotonic_clock.now ()) /. 1e9

(* Virtual outputs: a pure function of the workload, the seed and the
   program.  Any two runs of the same (workload, seed) must agree on all
   of them, traced or not, alone or after another workload. *)
type virt = {
  budget_requests : int;
  completed_requests : int;
  ops_per_request : int;
  throughput_ops : float;
  window_throughput_ops : float;
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
  events : int;
  messages : int;
  bytes : int;
  agreement : bool;
}

type result = {
  virt : virt;
  setup_s : float;
  wall_s : float;
  peak_heap_mb : float;
  layers : (string * float) list;  (** traced runs only *)
}

(* The cluster surface the measurements read, over either stack. *)
type cluster = {
  engine : Engine.t;
  network : Network.t;
  latency : Stats.Latency.t;
  throughput : Stats.Throughput.t;
  run_for : Engine.time -> unit;
  completed : unit -> int;
  agreement : unit -> bool;
  fast_slow : unit -> int * int;
  view_changes : unit -> int;
  retries : unit -> int;
  wal : unit -> int * int * int;  (** appends, syncs, durable bytes *)
}

(* [Scenario]'s configuration for the LAN profile (the only one the
   benchmark uses): the fast-path timer and collector stagger it derives
   from the topology. *)
let config_of (sc : Scenario.t) =
  let base =
    match sc.Scenario.protocol with
    | Scenario.SBFT c -> Config.sbft ~f:sc.Scenario.f ~c
    | Scenario.PBFT -> Config.sbft ~f:sc.Scenario.f ~c:0
    | Scenario.Linear_PBFT | Scenario.Linear_PBFT_fast ->
        invalid_arg "Drive.config_of: protocol not benchmarked"
  in
  let fast_path_timeout = Engine.ms 20 in
  sc.Scenario.tweak
    { base with Config.fast_path_timeout; collector_stagger = fast_path_timeout / 3 }

let topology ~num_nodes = Topology.lan ~num_nodes

let arm_primary_crash engine = function
  | None -> ()
  | Some at -> Engine.schedule engine ~at (fun () -> Engine.crash engine 0)

let sbft_cluster (c : Cluster.t) =
  let live r = not (Engine.is_crashed c.Cluster.engine (Replica.id r)) in
  {
    engine = c.Cluster.engine;
    network = c.Cluster.network;
    latency = c.Cluster.latency;
    throughput = c.Cluster.throughput;
    run_for = Cluster.run_for c;
    completed = (fun () -> Cluster.total_completed c);
    agreement = (fun () -> Cluster.agreement_ok c);
    fast_slow =
      (fun () ->
        Array.fold_left
          (fun (f, s) r ->
            if live r then (f + Replica.fast_commits r, s + Replica.slow_commits r) else (f, s))
          (0, 0) c.Cluster.replicas);
    view_changes =
      (fun () ->
        Array.fold_left (fun acc r -> max acc (Replica.view_changes_completed r)) 0
          c.Cluster.replicas);
    retries = (fun () -> Array.fold_left (fun acc cl -> acc + Client.retries cl) 0 c.Cluster.clients);
    wal =
      (fun () ->
        Array.fold_left
          (fun (a, s, b) r ->
            let w = Replica.wal r in
            ( a + Sbft_store.Wal.appends w,
              s + Sbft_store.Wal.syncs w,
              b + Sbft_store.Wal.durable_bytes w ))
          (0, 0, 0) c.Cluster.replicas);
  }

let pbft_cluster (c : Pbft_cluster.t) =
  {
    engine = c.Pbft_cluster.engine;
    network = c.Pbft_cluster.network;
    latency = c.Pbft_cluster.latency;
    throughput = c.Pbft_cluster.throughput;
    run_for = Pbft_cluster.run_for c;
    completed = (fun () -> Pbft_cluster.total_completed c);
    agreement = (fun () -> Pbft_cluster.agreement_ok c);
    fast_slow = (fun () -> (0, 0));
    view_changes =
      (fun () ->
        Array.fold_left (fun acc r -> max acc (Pbft_replica.view_changes_completed r)) 0
          c.Pbft_cluster.replicas);
    retries = (fun () -> 0);
    wal = (fun () -> (0, 0, 0));
  }

(* The construction sequence of [Scenario.run]: cluster, primary crash,
   closed-loop clients. *)
let build ~traced ~phases (sc : Scenario.t) ~payloads =
  let config = config_of sc in
  let seed = sc.Scenario.seed and cpu_scale = sc.Scenario.cpu_scale in
  let num_clients = sc.Scenario.num_clients in
  let requests_per_client = sc.Scenario.requests_per_client in
  let make_op ~client i = payloads.(client).(i) in
  if sc.Scenario.failures <> 0 then invalid_arg "Drive.build: backup failures not benchmarked";
  match sc.Scenario.protocol with
  | Scenario.PBFT ->
      let c =
        if traced then Mirror.pbft ~seed ~cpu_scale ~phases ~config ~num_clients ~topology ()
        else
          Pbft_cluster.create ~seed ~cpu_scale ~config ~num_clients ~topology
            ~service:Sbft_workload.Kv_workload.service ()
      in
      arm_primary_crash c.Pbft_cluster.engine sc.Scenario.crash_primary_at;
      Pbft_cluster.start_clients c ~requests_per_client ~make_op;
      pbft_cluster c
  | _ ->
      let c =
        if traced then Mirror.sbft ~seed ~cpu_scale ~phases ~config ~num_clients ~topology ()
        else
          Cluster.create ~seed ~cpu_scale ~config ~num_clients ~topology
            ~service:Sbft_workload.Kv_workload.service ()
      in
      arm_primary_crash c.Cluster.engine sc.Scenario.crash_primary_at;
      Cluster.start_clients c ~requests_per_client ~make_op;
      sbft_cluster c

(* Every run goes to [Scenario.run]'s horizon, in one [run_for]. *)
let horizon (sc : Scenario.t) = sc.Scenario.warmup + sc.Scenario.duration

(* Completions recorded before virtual time [t].  [Stats.Throughput]
   reports rates over windows rather than its samples, so a count is a
   rate times the window's length. *)
let completed_before tp t =
  if t <= 0 then 0
  else int_of_float (Float.round (Stats.Throughput.rate tp ~from_:0 ~until:t *. Engine.to_sec t))

(* Virtual time of the [k]-th completion (from 1), found by bisection:
   the least [t] with [k] completions at or before it. *)
let completion_at tp ~horizon k =
  let rec go lo hi =
    if hi - lo <= 1 then hi
    else
      let mid = lo + ((hi - lo) / 2) in
      if completed_before tp (mid + 1) >= k then go lo mid else go mid hi
  in
  go (-1) horizon

(* Throughput over the central 80% of completions, from the time a
   tenth of the requests had completed to the time nine tenths had: the
   closed loop's steady state, without the start-up and drain at either
   end of a short run. *)
let central_throughput_ops (sc : Scenario.t) c ~ops_per_request =
  let n = Stats.Throughput.total c.throughput in
  let lo = (n / 10) + 1 and hi = 9 * n / 10 in
  let at = completion_at c.throughput ~horizon:(horizon sc) in
  if hi <= lo then 0.
  else
    let span = at hi - at lo in
    if span <= 0 then 0. else float_of_int ((hi - lo) * ops_per_request) /. Engine.to_sec span

(* [Scenario.run]'s measurement window, warm-up to the last completion,
   for the check against [Scenario.run]. *)
let window_throughput_ops (sc : Scenario.t) c ~ops_per_request =
  let until =
    match Stats.Throughput.last_at c.throughput with
    | Some at when at > sc.Scenario.warmup -> at
    | _ -> horizon sc
  in
  Stats.Throughput.rate c.throughput ~from_:sc.Scenario.warmup ~until
  *. float_of_int ops_per_request

let virt_of (sc : Scenario.t) c =
  let ops_per_request = Scenario.ops_per_request sc.Scenario.workload in
  {
    budget_requests = sc.Scenario.num_clients * sc.Scenario.requests_per_client;
    completed_requests = c.completed ();
    ops_per_request;
    throughput_ops = central_throughput_ops sc c ~ops_per_request;
    window_throughput_ops = window_throughput_ops sc c ~ops_per_request;
    p50_ms = Stats.Latency.median_ms c.latency;
    p95_ms = Stats.Latency.percentile_ms c.latency 0.95;
    p99_ms = Stats.Latency.percentile_ms c.latency 0.99;
    events = Engine.events_executed c.engine;
    messages = Network.messages_sent c.network;
    bytes = Network.bytes_sent c.network;
    agreement = c.agreement ();
  }

(* The longest gap between consecutive completions among the gaps that
   end after the primary crash; 0 without a crash. *)
let outage_ms (sc : Scenario.t) c =
  match sc.Scenario.crash_primary_at with
  | None -> 0.
  | Some crash ->
      let widest = ref 0 and prev = ref 0 in
      for k = 1 to Stats.Throughput.total c.throughput do
        let at = completion_at c.throughput ~horizon:(horizon sc) k in
        if at > crash && at - !prev > !widest then widest := at - !prev;
        prev := at
      done;
      Engine.to_ms !widest

let mib words = float_of_int (words * (Sys.word_size / 8)) /. 1_048_576.

(* Per-layer numbers of a traced run, named as in {!Metrics.per_layer};
   the crypto costs and the tracing overhead are added by the caller,
   which measures them outside this run. *)
let layers (sc : Scenario.t) c (v : virt) ~phases ~gen_s ~wall_s ~gc0 ~gc1 =
  let float_i = float_of_int in
  let ops = float_i (max 1 (v.completed_requests * v.ops_per_request)) in
  let prof = Engine.profile c.engine in
  let fast, slow = c.fast_slow () in
  let appends, syncs, durable = c.wal () in
  let handlers =
    List.concat_map
      (fun (prefix, kinds) ->
        let named = List.filter (fun k -> not (String.equal k "other")) kinds in
        List.concat_map
          (fun k ->
            let self_s, calls =
              if String.equal k "other" then Span.others ~prefix ~named
              else (Span.self_s (prefix ^ k), Span.calls (prefix ^ k))
            in
            [ (prefix ^ k ^ ".self_s", self_s); (prefix ^ k ^ ".calls", float_i calls) ])
          kinds)
      Metrics.handler_spans
  in
  let tally = Sbft_crypto.Cost_model.Tally.snapshot () in
  [
    ("sim.engine.self_s", Span.self_s "sim.engine");
    ("sim.engine.events", float_i v.events);
    ("sim.engine.ns_per_event", wall_s *. 1e9 /. float_i (max 1 v.events));
    ("sim.engine.timers_fired", float_i prof.Engine.p_timers_fired);
    ("sim.engine.timers_skipped", float_i prof.Engine.p_timers_skipped);
    ("sim.engine.max_pending", float_i prof.Engine.p_max_pending);
    ("sim.network.send_s", Span.self_s "sim.network");
    ("sim.network.sends", float_i v.messages);
    ("sim.network.dropped", float_i (Network.messages_dropped c.network));
    ("sim.network.msgs_per_op", float_i v.messages /. ops);
    ("sim.network.bytes_per_op", float_i v.bytes /. ops);
  ]
  @ handlers
  @ [
      ("core.fast_fraction", if fast + slow = 0 then 0. else float_i fast /. float_i (fast + slow));
      ("core.view_changes", float_i (c.view_changes ()));
      ("core.client.retries", float_i (c.retries ()));
      ("fault.outage_ms", outage_ms sc c);
      ("store.apply_s", Span.self_s "store.apply");
      ("store.apply_calls", float_i (Span.calls "store.apply"));
      ("store.wal.appends_per_op", float_i appends /. ops);
      ("store.wal.syncs_per_op", float_i syncs /. ops);
      ("store.wal.durable_mb", float_i durable /. 1_048_576.);
      ("workload.exec_cost_s", Span.self_s "workload.exec_cost");
      ("workload.exec_cost_calls", float_i (Span.calls "workload.exec_cost"));
      ("workload.gen_s", gen_s);
    ]
  @ List.map
      (fun label ->
        ( "vcpu." ^ label ^ "_ms",
          Engine.to_ms (Option.value (List.assoc_opt label tally) ~default:0) ))
      Metrics.vcpu_labels
  @ List.map (fun (p, ms) -> ("phase." ^ p ^ "_ms", ms)) (Mirror.Phases.medians phases)
  @ [
      ("gc.minor_mwords", (gc1.Gc.minor_words -. gc0.Gc.minor_words) /. 1e6);
      ("gc.major_collections", float_i (gc1.Gc.major_collections - gc0.Gc.major_collections));
      ("trace.wall_s", wall_s);
      ("trace.span_sum_frac", Span.total_self_s () /. wall_s);
    ]

(* Set-up takes a few milliseconds, too short for one timing to be
   steady, so an untraced run builds the cluster this many times, each
   after a full collection, reports the median and runs the last one. *)
let setup_builds = 9

let run ?(traced = false) (sc : Scenario.t) =
  let g0 = now_s () in
  let payloads = Workload.payloads sc in
  let gen_s = now_s () -. g0 in
  let phases = Mirror.Phases.create () in
  if traced then Sbft_crypto.Cost_model.Tally.reset ();
  let builds = if traced then 1 else setup_builds in
  let setup_times = Array.make builds 0. in
  let rec build_timed i =
    Gc.full_major ();
    let t0 = now_s () in
    let c = build ~traced ~phases sc ~payloads in
    setup_times.(i) <- now_s () -. t0;
    if i + 1 < builds then build_timed (i + 1) else c
  in
  let c = build_timed 0 in
  Array.sort compare setup_times;
  let gc0 = Gc.quick_stat () in
  let t1 = now_s () in
  if traced then Span.run (Span.agg "sim.engine") (fun () -> c.run_for (horizon sc))
  else c.run_for (horizon sc);
  let wall_s = now_s () -. t1 in
  let gc1 = Gc.quick_stat () in
  let virt = virt_of sc c in
  {
    virt;
    setup_s = setup_times.(builds / 2);
    wall_s;
    peak_heap_mb = mib gc1.Gc.top_heap_words;
    layers = (if traced then layers sc c virt ~phases ~gen_s ~wall_s ~gc0 ~gc1 else []);
  }
