open Sbft_sim
module Config = Sbft_core.Config
module Keys = Sbft_core.Keys
module Cluster = Sbft_core.Cluster

type t = {
  engine : Engine.t;
  network : Network.t;
  trace : Trace.t;
  keys : Keys.t;
  config : Config.t;
  replicas : Pbft_replica.t array;
  clients : Pbft_client.t array;
  latency : Stats.Latency.t;
  throughput : Stats.Throughput.t;
}

let create ?(seed = 1L) ?(trace = false) ?(cpu_scale = 1.0) ~config ~num_clients
    ~topology ~(service : Cluster.service) () =
  let config = { config with Config.c = 0 } in
  let n = Config.n config in
  let num_nodes = n + num_clients in
  let engine = Engine.create ~num_nodes ~seed () in
  for node = 0 to num_nodes - 1 do
    Engine.set_cpu_scale engine node cpu_scale
  done;
  let network = Network.create ~topology:(topology ~num_nodes) () in
  let tr = Trace.create ~enabled:trace () in
  let rng = Rng.split (Engine.rng engine) in
  let keys, _replica_keys, client_kps = Keys.setup rng ~config ~num_clients in
  let deliver = ref (fun _ctx ~src:_ ~dst:_ _msg -> ()) in
  let send ctx ~src ~dst msg =
    Engine.charge ctx Network.send_overhead;
    Network.send network engine ~src ~dst ~size:(Pbft_types.size msg)
      ~at:(Engine.ctx_now ctx) (fun ctx -> !deliver ctx ~src ~dst msg)
  in
  let env =
    { Pbft_replica.engine; trace = tr; keys; send; exec_cost = service.Cluster.exec_cost }
  in
  let exec_cache = Sbft_store.Auth_store.new_cache () in
  let replicas =
    Array.init n (fun i ->
        let store = service.Cluster.make_store () in
        Sbft_store.Auth_store.set_cache store exec_cache;
        Pbft_replica.create ~env ~id:i ~store)
  in
  let latency = Stats.Latency.create () in
  let throughput = Stats.Throughput.create () in
  let clients =
    Array.init num_clients (fun i ->
        Pbft_client.create ~env ~id:(n + i) ~keypair:client_kps.(i)
          ~on_complete:(fun ~timestamp:_ ~latency:l ~value:_ ->
            Stats.Latency.add latency l;
            Stats.Throughput.add throughput ~at:(Engine.now engine) 1))
  in
  deliver :=
    (fun ctx ~src ~dst msg ->
      if dst < n then Pbft_replica.on_message replicas.(dst) ctx ~src msg
      else if dst < num_nodes then Pbft_client.on_message clients.(dst - n) ctx ~src msg);
  Array.iter
    (fun r ->
      Engine.dispatch engine ~dst:(Pbft_replica.id r) ~at:0 (fun ctx ->
          Pbft_replica.start r ctx))
    replicas;
  { engine; network; trace = tr; keys; config; replicas; clients; latency; throughput }

let start_clients t ~requests_per_client ~make_op =
  Array.iteri
    (fun i c ->
      Pbft_client.run_closed_loop c ~num_requests:requests_per_client
        ~make_op:(fun k -> make_op ~client:i k)
        ~start_at:0)
    t.clients

let crash_replicas t ids =
  List.iter
    (fun id ->
      (* Retire first so any timer already armed by this incarnation is
         a no-op if the engine ever re-enables the node. *)
      Pbft_replica.retire t.replicas.(id);
      Engine.crash t.engine id)
    ids
let run_for t duration = Engine.run_until t.engine (Engine.now t.engine + duration)

let total_completed t =
  Array.fold_left (fun acc c -> acc + Pbft_client.completed c) 0 t.clients

let agreement_ok t =
  Cluster.agreement ~last_executed:Pbft_replica.last_executed
    ~committed_block:Pbft_replica.committed_block ~state_digest:Pbft_replica.state_digest
    t.replicas
