(* Traced mirrors of [Cluster.create] and [Pbft_cluster.create]: the same
   construction, step for step and in the same RNG order, with host-time
   spans around the calls into each layer and virtual timestamps for the
   per-request phase breakdown.  The untraced run uses the library
   constructors; the benchmark fails when the two disagree on any
   virtual output, so the mirror cannot drift silently.

   Limit: work a replica or client does from its own timers (the primary's
   batch loop, collector and retry timers) is not behind a handler span
   and counts as engine self time. *)

open Sbft_sim
open Sbft_core
module Auth_store = Sbft_store.Auth_store

(* First virtual time each protocol step was seen, per request (keyed by
   client node id and timestamp) or per sequence number. *)
module Phases = struct
  type t = {
    submitted : (int * int, int) Hashtbl.t;
    at_primary : (int * int, int) Hashtbl.t;
    seq_of : (int * int, int) Hashtbl.t;
    ordered : (int, int) Hashtbl.t;
    committed : (int, int) Hashtbl.t;
    executed : (int, int) Hashtbl.t;
    completed : (int * int, int) Hashtbl.t;
  }

  let create () =
    {
      submitted = Hashtbl.create 4096;
      at_primary = Hashtbl.create 4096;
      seq_of = Hashtbl.create 4096;
      ordered = Hashtbl.create 1024;
      committed = Hashtbl.create 1024;
      executed = Hashtbl.create 1024;
      completed = Hashtbl.create 4096;
    }

  let first tbl k v = if not (Hashtbl.mem tbl k) then Hashtbl.replace tbl k v

  let proposed t ~seq ~at (reqs : Types.request list) =
    if not (Hashtbl.mem t.ordered seq) then begin
      Hashtbl.replace t.ordered seq at;
      List.iter (fun (r : Types.request) -> first t.seq_of (r.client, r.timestamp) seq) reqs
    end

  let median = function
    | [] -> 0.
    | xs ->
        let a = Array.of_list xs in
        Array.sort compare a;
        a.(Array.length a / 2)

  (* Median of each of {!Metrics.phases}, in virtual ms, over the
     requests seen through every step: submit -> request at a replica ->
     first pre-prepare -> first commit certificate (SBFT) or first commit
     vote, before any replica holds 2f+1 of them (PBFT) -> first
     execution certificate (SBFT) or first reply (PBFT) -> completion at
     the client.  So on PBFT the commit phase ends early and the rest of
     the commit round falls into the execute phase. *)
  let medians t =
    let spans = Array.make (List.length Metrics.phases) [] in
    Hashtbl.iter
      (fun req done_at ->
        let stamps =
          let ( let* ) = Option.bind in
          let* sub = Hashtbl.find_opt t.submitted req in
          let* prim = Hashtbl.find_opt t.at_primary req in
          let* seq = Hashtbl.find_opt t.seq_of req in
          let* ord = Hashtbl.find_opt t.ordered seq in
          let* com = Hashtbl.find_opt t.committed seq in
          let* exe = Hashtbl.find_opt t.executed seq in
          Some [| sub; prim; ord; com; exe; done_at |]
        in
        Option.iter
          (fun s ->
            Array.iteri
              (fun i acc -> spans.(i) <- Engine.to_ms (s.(i + 1) - s.(i)) :: acc)
              spans)
          stamps)
      t.completed;
    List.mapi (fun i name -> (name, median spans.(i))) Metrics.phases
end

(* One span aggregate per message kind, resolved once per kind. *)
let kind_spans prefix =
  let cache = Hashtbl.create 16 in
  fun kind ->
    match Hashtbl.find_opt cache kind with
    | Some a -> a
    | None ->
        let a = Span.agg (prefix ^ kind) in
        Hashtbl.replace cache kind a;
        a

(* {!Cluster.kv_service} with its store apply and execution-cost calls
   behind spans. *)
let kv_service () : Cluster.service =
  let apply = Span.agg "store.apply" and exec = Span.agg "workload.exec_cost" in
  {
    Cluster.make_store =
      (fun () ->
        Auth_store.create
          ~apply:(fun st op -> Span.run apply (fun () -> Sbft_store.Kv_service.apply st op))
          ());
    exec_cost = (fun reqs -> Span.run exec (fun () -> Cluster.kv_service.exec_cost reqs));
  }

(* Both constructors charge this per send, as the library's do. *)
let send_overhead = Engine.us 20

let sbft ~seed ~cpu_scale ~phases ~config ~num_clients ~topology () : Cluster.t =
  (match Config.validate config with
  | Ok () -> ()
  | Error e -> invalid_arg ("Mirror.sbft: " ^ e));
  let service = kv_service () in
  let n = Config.n config in
  let num_nodes = n + num_clients in
  let engine = Engine.create ~num_nodes ~seed () in
  for node = 0 to num_nodes - 1 do
    Engine.set_cpu_scale engine node cpu_scale
  done;
  let network = Network.create ~topology:(topology ~num_nodes) () in
  let tr = Trace.create ~enabled:false () in
  let rng = Rng.split (Engine.rng engine) in
  let keys, replica_keys, client_kps = Keys.setup rng ~config ~num_clients in
  let deliver = ref (fun _ctx ~src:_ ~dst:_ _msg -> ()) in
  let net = Span.agg "sim.network" in
  let send ctx ~src ~dst msg =
    Engine.charge ctx send_overhead;
    (match msg with
    | Types.Request r when src >= n ->
        Phases.first phases.Phases.submitted (r.client, r.timestamp) (Engine.ctx_now ctx)
    | _ -> ());
    Span.run net (fun () ->
        Network.send network engine ~src ~dst ~size:(Types.size msg)
          ~at:(Engine.ctx_now ctx) (fun ctx -> !deliver ctx ~src ~dst msg))
  in
  let env = { Replica.engine; trace = tr; keys; send; exec_cost = service.exec_cost } in
  let exec_cache = Auth_store.new_cache () in
  let durables =
    Array.init n (fun _ ->
        { Replica.wal = Sbft_store.Wal.create (); blocks = Sbft_store.Block_store.create () })
  in
  let replicas =
    Array.init n (fun i ->
        let store = service.make_store () in
        Auth_store.set_cache store exec_cache;
        Replica.create ~env ~my:replica_keys.(i) ~store ~durable:durables.(i))
  in
  let latency = Stats.Latency.create () in
  let throughput = Stats.Throughput.create () in
  let clients =
    Array.init num_clients (fun i ->
        let cid = n + i in
        Client.create ~env ~id:cid ~keypair:client_kps.(i)
          ~on_complete:(fun ~timestamp ~latency:l ~value:_ ->
            Stats.Latency.add latency l;
            Stats.Throughput.add throughput ~at:(Engine.now engine) 1;
            Phases.first phases.Phases.completed (cid, timestamp) (Engine.now engine)))
  in
  let replica_span = kind_spans "core.replica." and client_span = kind_spans "core.client." in
  deliver :=
    (fun ctx ~src ~dst msg ->
      if dst < n then begin
        let at = Engine.ctx_now ctx in
        (match msg with
        | Types.Request r -> Phases.first phases.Phases.at_primary (r.client, r.timestamp) at
        | Types.Pre_prepare { seq; reqs; _ } -> Phases.proposed phases ~seq ~at reqs
        | Types.Full_commit_proof { seq; _ } | Types.Full_commit_proof_slow { seq; _ } ->
            Phases.first phases.Phases.committed seq at
        | Types.Full_execute_proof { seq; _ } -> Phases.first phases.Phases.executed seq at
        | _ -> ());
        Span.run (replica_span (Types.kind msg)) (fun () ->
            Replica.on_message replicas.(dst) ctx ~src msg)
      end
      else if dst < num_nodes then
        Span.run (client_span (Types.kind msg)) (fun () ->
            Client.on_message clients.(dst - n) ctx ~src msg));
  Array.iter
    (fun r -> Engine.dispatch engine ~dst:(Replica.id r) ~at:0 (fun ctx -> Replica.start r ctx))
    replicas;
  {
    Cluster.engine;
    network;
    trace = tr;
    keys;
    config;
    replicas;
    clients;
    latency;
    throughput;
    service;
    env;
    replica_keys;
    exec_cache;
    durables;
    amnesia = Array.make n false;
  }

let pbft ~seed ~cpu_scale ~phases ~config ~num_clients ~topology () :
    Sbft_pbft.Pbft_cluster.t =
  let open Sbft_pbft in
  let service = kv_service () in
  let config = { config with Config.c = 0 } in
  let n = Config.n config in
  let num_nodes = n + num_clients in
  let engine = Engine.create ~num_nodes ~seed () in
  for node = 0 to num_nodes - 1 do
    Engine.set_cpu_scale engine node cpu_scale
  done;
  let network = Network.create ~topology:(topology ~num_nodes) () in
  let tr = Trace.create ~enabled:false () in
  let rng = Rng.split (Engine.rng engine) in
  let keys, _replica_keys, client_kps = Keys.setup rng ~config ~num_clients in
  let deliver = ref (fun _ctx ~src:_ ~dst:_ _msg -> ()) in
  let net = Span.agg "sim.network" in
  let send ctx ~src ~dst msg =
    Engine.charge ctx send_overhead;
    (match msg with
    | Pbft_types.Request r when src >= n ->
        Phases.first phases.Phases.submitted (r.client, r.timestamp) (Engine.ctx_now ctx)
    | _ -> ());
    Span.run net (fun () ->
        Network.send network engine ~src ~dst ~size:(Pbft_types.size msg)
          ~at:(Engine.ctx_now ctx) (fun ctx -> !deliver ctx ~src ~dst msg))
  in
  let env =
    { Pbft_replica.engine; trace = tr; keys; send; exec_cost = service.Cluster.exec_cost }
  in
  let exec_cache = Auth_store.new_cache () in
  let replicas =
    Array.init n (fun i ->
        let store = service.Cluster.make_store () in
        Auth_store.set_cache store exec_cache;
        Pbft_replica.create ~env ~id:i ~store)
  in
  let latency = Stats.Latency.create () in
  let throughput = Stats.Throughput.create () in
  let clients =
    Array.init num_clients (fun i ->
        let cid = n + i in
        Pbft_client.create ~env ~id:cid ~keypair:client_kps.(i)
          ~on_complete:(fun ~timestamp ~latency:l ~value:_ ->
            Stats.Latency.add latency l;
            Stats.Throughput.add throughput ~at:(Engine.now engine) 1;
            Phases.first phases.Phases.completed (cid, timestamp) (Engine.now engine)))
  in
  let replica_span = kind_spans "pbft.replica." and client_span = kind_spans "pbft.client." in
  deliver :=
    (fun ctx ~src ~dst msg ->
      if dst < n then begin
        let at = Engine.ctx_now ctx in
        (match msg with
        | Pbft_types.Request r ->
            Phases.first phases.Phases.at_primary (r.client, r.timestamp) at
        | Pbft_types.Pre_prepare { seq; reqs; _ } -> Phases.proposed phases ~seq ~at reqs
        | Pbft_types.Commit { seq; _ } -> Phases.first phases.Phases.committed seq at
        | _ -> ());
        Span.run (replica_span (Pbft_types.kind msg)) (fun () ->
            Pbft_replica.on_message replicas.(dst) ctx ~src msg)
      end
      else if dst < num_nodes then begin
        (match msg with
        | Pbft_types.Reply { seq; _ } ->
            Phases.first phases.Phases.executed seq (Engine.ctx_now ctx)
        | _ -> ());
        Span.run (client_span (Pbft_types.kind msg)) (fun () ->
            Pbft_client.on_message clients.(dst - n) ctx ~src msg)
      end);
  Array.iter
    (fun r ->
      Engine.dispatch engine ~dst:(Pbft_replica.id r) ~at:0 (fun ctx ->
          Pbft_replica.start r ctx))
    replicas;
  { Pbft_cluster.engine; network; trace = tr; keys; config; replicas; clients; latency; throughput }
