open Sbft_sim
open Sbft_core
open Sbft_workload

type protocol = PBFT | Linear_PBFT | Linear_PBFT_fast | SBFT of int

let protocol_name = function
  | PBFT -> "PBFT"
  | Linear_PBFT -> "Linear-PBFT"
  | Linear_PBFT_fast -> "Linear-PBFT+Fast"
  | SBFT c -> Printf.sprintf "SBFT (c=%d)" c

type workload = Kv of { batching : bool } | Eth

type t = {
  protocol : protocol;
  f : int;
  workload : workload;
  num_clients : int;
  failures : int;
  topology : Topology.kind;
  warmup : Engine.time;
  duration : Engine.time;
  seed : int64;
  cpu_scale : float;
  requests_per_client : int;
  crash_primary_at : Engine.time option;
  tweak : Config.t -> Config.t;
}

let default ?(failures = 0) ?(topology = `Continent) ?(warmup = Engine.ms 750)
    ?(duration = Engine.ms 1500) ?(seed = 1L) ?(cpu_scale = 0.5)
    ?(requests_per_client = max_int) ?crash_primary_at ?(tweak = Fun.id)
    ~protocol ~f ~workload ~num_clients () =
  { protocol; f; workload; num_clients; failures; topology; warmup; duration; seed;
    cpu_scale; requests_per_client; crash_primary_at; tweak }

type point = {
  scenario : t;
  throughput_ops : float;
  median_latency_ms : float;
  mean_latency_ms : float;
  p90_latency_ms : float;
  p99_latency_ms : float;
  completed_requests : int;
  messages : int;
  bytes : int;
  fast_fraction : float;
  view_changes : int;
  agreement : bool;
  host_seconds : float;
  events : int;
  events_per_sec : float;  (* simulator events per host second *)
  minor_words : float;  (* minor-heap words allocated during the run *)
  profile : Engine.profile;
}

let ops_per_request = function
  | Kv { batching } -> Kv_workload.ops_per_request ~batching
  | Eth -> Eth_workload.txs_per_chunk

let config_of t =
  let base =
    match t.protocol with
    | PBFT | SBFT _ ->
        let c = match t.protocol with SBFT c -> c | _ -> 0 in
        Config.sbft ~f:t.f ~c
    | Linear_PBFT -> Config.linear_pbft ~f:t.f
    | Linear_PBFT_fast -> Config.linear_pbft_fast ~f:t.f
  in
  (* The paper adapts the fast-path fallback timer from network
     profiling; here it scales with the topology's latency spread. *)
  let fast_path_timeout =
    match t.topology with
    | `Lan -> Engine.ms 20
    | `Continent -> Engine.ms 150
    | `World -> Engine.ms 450
  in
  let stagger = fast_path_timeout / 3 in
  t.tweak
    { base with Config.fast_path_timeout; collector_stagger = stagger }

let service_of = function
  | Kv _ -> Kv_workload.service
  | Eth -> Eth_workload.service

let make_op_of workload ~client i =
  match workload with
  | Kv { batching } -> Kv_workload.make_op ~batching ~client i
  | Eth -> Eth_workload.make_chunk ~client i

(* Crash the highest-numbered backups (never the initial primary, so
   failure experiments measure fault {e tolerance}, not fail-over; the
   paper's failure runs behave the same way). *)
let crash_set ~n ~failures = List.init failures (fun i -> n - 1 - i)

let log_point t (p : point) =
  Printf.eprintf
    "[scenario] %-18s f=%d cl=%-3d fail=%-2d %-10s -> %8.0f ops/s %6.1f ms (host %.0fs, %.0fk ev/s, heap %dMB)\n%!"
    (protocol_name t.protocol) t.f t.num_clients t.failures
    (match t.workload with
    | Kv { batching = true } -> "kv-batch"
    | Kv { batching = false } -> "kv-nobatch"
    | Eth -> "eth")
    p.throughput_ops p.median_latency_ms p.host_seconds
    (p.events_per_sec /. 1000.)
    (Gc.((quick_stat ()).heap_words) * 8 / 1_048_576)

(* Crash the initial primary (node 0) mid-run: the view-change variant
   of the paper-scale family.  Scheduled as a bare engine thunk so it
   needs no cluster plumbing. *)
let arm_primary_crash engine = function
  | None -> ()
  | Some at -> Engine.schedule engine ~at (fun () -> Engine.crash engine 0)

(* Either protocol stack behind one record: the construction steps the
   scenario drives, then the outputs [run] measures and [run_traced]
   reads. *)
type stack = {
  engine : Engine.t;
  network : Network.t;
  trace : Trace.t;
  latency : Stats.Latency.t;
  throughput : Stats.Throughput.t;
  n : int;
  crash : int list -> unit;
  start_clients : requests_per_client:int -> make_op:(client:int -> int -> string) -> unit;
  run_for : Engine.time -> unit;
  completed : unit -> int;
  fast_fraction : unit -> float;
  view_changes : unit -> int;
  agreement : unit -> bool;
}

let pbft_stack ~trace ~config ~topology ~service t =
  let open Sbft_pbft in
  let c =
    Pbft_cluster.create ~trace ~seed:t.seed ~cpu_scale:t.cpu_scale ~config
      ~num_clients:t.num_clients ~topology ~service ()
  in
  {
    engine = c.Pbft_cluster.engine;
    network = c.Pbft_cluster.network;
    trace = c.Pbft_cluster.trace;
    latency = c.Pbft_cluster.latency;
    throughput = c.Pbft_cluster.throughput;
    n = Config.n c.Pbft_cluster.config;
    crash = Pbft_cluster.crash_replicas c;
    start_clients = Pbft_cluster.start_clients c;
    run_for = Pbft_cluster.run_for c;
    completed = (fun () -> Pbft_cluster.total_completed c);
    fast_fraction = (fun () -> 0.0);
    view_changes =
      (fun () ->
        Array.fold_left
          (fun acc r -> max acc (Pbft_replica.view_changes_completed r))
          0 c.Pbft_cluster.replicas);
    agreement = (fun () -> Pbft_cluster.agreement_ok c);
  }

let sbft_stack ~trace ~config ~topology ~service t =
  let c =
    Cluster.create ~trace ~seed:t.seed ~cpu_scale:t.cpu_scale ~config
      ~num_clients:t.num_clients ~topology ~service ()
  in
  {
    engine = c.Cluster.engine;
    network = c.Cluster.network;
    trace = c.Cluster.trace;
    latency = c.Cluster.latency;
    throughput = c.Cluster.throughput;
    n = Config.n c.Cluster.config;
    crash = Cluster.crash_replicas c;
    start_clients = Cluster.start_clients c;
    run_for = Cluster.run_for c;
    completed = (fun () -> Cluster.total_completed c);
    fast_fraction =
      (fun () ->
        let fast, slow =
          Array.fold_left
            (fun (f_, s) r ->
              if Engine.is_crashed c.Cluster.engine (Replica.id r) then (f_, s)
              else (f_ + Replica.fast_commits r, s + Replica.slow_commits r))
            (0, 0) c.Cluster.replicas
        in
        if fast + slow = 0 then 0.0 else float_of_int fast /. float_of_int (fast + slow));
    view_changes =
      (fun () ->
        Array.fold_left
          (fun acc r -> max acc (Replica.view_changes_completed r))
          0 c.Cluster.replicas);
    agreement = (fun () -> Cluster.agreement_ok c);
  }

(* The construction sequence both [run] and [run_traced] use: cluster,
   crashed backups, primary crash, clients, then the whole horizon. *)
let build_and_run ~trace t =
  let config = config_of t in
  let topology = Topology.of_kind t.topology in
  let service = service_of t.workload in
  let s =
    match t.protocol with
    | PBFT -> pbft_stack ~trace ~config ~topology ~service t
    | Linear_PBFT | Linear_PBFT_fast | SBFT _ -> sbft_stack ~trace ~config ~topology ~service t
  in
  s.crash (crash_set ~n:s.n ~failures:t.failures);
  arm_primary_crash s.engine t.crash_primary_at;
  s.start_clients ~requests_per_client:t.requests_per_client ~make_op:(make_op_of t.workload);
  s.run_for (t.warmup + t.duration);
  s

(* One run with tracing on, returning the raw event stream instead of a
   measurement point — the input to the R8 replay-divergence checker. *)
let run_traced t = Trace.records (build_and_run ~trace:true t).trace

let run t =
  let host0 = Sys.time () in
  let minor0 = Gc.minor_words () in
  let s = build_and_run ~trace:false t in
  let horizon = t.warmup + t.duration in
  (* A finite-request run drains before the horizon; its measurement
     window ends at the last completion, not at the idle tail. *)
  let until =
    if t.requests_per_client = max_int then horizon
    else
      match Stats.Throughput.last_at s.throughput with
      | Some at when at > t.warmup -> at
      | _ -> horizon
  in
  let reqs_per_sec = Stats.Throughput.rate s.throughput ~from_:t.warmup ~until in
  let agreement = s.agreement () in
  let view_changes = s.view_changes () in
  let fast_fraction = s.fast_fraction () in
  let completed_requests = s.completed () in
  let host_seconds = Sys.time () -. host0 in
  let events = Engine.events_executed s.engine in
  let p : point =
    {
      scenario = t;
      throughput_ops = reqs_per_sec *. float_of_int (ops_per_request t.workload);
      median_latency_ms = Stats.Latency.median_ms s.latency;
      mean_latency_ms = Stats.Latency.mean_ms s.latency;
      p90_latency_ms = Stats.Latency.percentile_ms s.latency 0.9;
      p99_latency_ms = Stats.Latency.percentile_ms s.latency 0.99;
      completed_requests;
      messages = Network.messages_sent s.network;
      bytes = Network.bytes_sent s.network;
      fast_fraction;
      view_changes;
      agreement;
      host_seconds;
      events;
      events_per_sec =
        (if host_seconds > 0. then float_of_int events /. host_seconds else 0.);
      minor_words = Gc.minor_words () -. minor0;
      profile = Engine.profile s.engine;
    }
  in
  log_point t p;
  Gc.compact ();
  p
