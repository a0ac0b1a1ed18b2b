open Sbft_sim
open Sbft_crypto

type service = {
  make_store : unit -> Sbft_store.Auth_store.t;
  exec_cost : Types.request list -> Engine.time;
}

let kv_service =
  {
    make_store = (fun () -> Sbft_store.Kv_service.create ());
    exec_cost =
      (fun reqs ->
        (* Charge per primitive operation (batched requests carry many)
           plus the block's persistence. *)
        List.fold_left
          (fun acc (r : Types.request) ->
            match Sbft_store.Kv_op.count_encoded r.op with
            | Some n -> acc + (n * Cost_model.kv_execute_op)
            | None -> acc)
          (Cost_model.persist_block (Types.requests_bytes reqs))
          reqs);
  }

type t = {
  engine : Engine.t;
  network : Network.t;
  trace : Trace.t;
  keys : Keys.t;
  config : Config.t;
  replicas : Replica.t array;
  clients : Client.t array;
  latency : Stats.Latency.t;
  throughput : Stats.Throughput.t;
  (* rebuild machinery for crash-amnesia recovery *)
  service : service;
  env : Replica.env;
  replica_keys : Keys.replica_keys array;
  exec_cache : Sbft_store.Auth_store.cache;
  durables : Replica.durable array;
  amnesia : bool array;  (* crashed with volatile state wiped *)
}

let create ?(seed = 1L) ?(trace = false) ?(cpu_scale = 1.0)
    ?(on_complete = fun ~client:_ ~timestamp:_ ~value:_ -> ()) ~config
    ~num_clients ~topology ~service () =
  (match Config.validate config with
  | Ok () -> ()
  | Error e -> invalid_arg ("Cluster.create: " ^ e));
  let n = Config.n config in
  let num_nodes = n + num_clients in
  let engine = Engine.create ~num_nodes ~seed () in
  for node = 0 to num_nodes - 1 do
    Engine.set_cpu_scale engine node cpu_scale
  done;
  let network = Network.create ~topology:(topology ~num_nodes) () in
  let tr = Trace.create ~enabled:trace () in
  let rng = Rng.split (Engine.rng engine) in
  let keys, replica_keys, client_kps = Keys.setup rng ~config ~num_clients in
  let deliver = ref (fun _ctx ~src:_ ~dst:_ _msg -> ()) in
  let send ctx ~src ~dst msg =
    Engine.charge ctx Network.send_overhead;
    Network.send network engine ~src ~dst ~size:(Types.size msg)
      ~at:(Engine.ctx_now ctx) (fun ctx -> !deliver ctx ~src ~dst msg)
  in
  let env = { Replica.engine; trace = tr; keys; send; exec_cost = service.exec_cost } in
  (* All honest replicas execute identical blocks: share the execution
     work and the resulting persistent state across them.  Each entry is
     freed once all n replicas have taken it. *)
  let exec_cache = Sbft_store.Auth_store.new_cache ~takers:n () in
  let durables =
    Array.init n (fun _ ->
        { Replica.wal = Sbft_store.Wal.create (); blocks = Sbft_store.Block_store.create () })
  in
  let replicas =
    Array.init n (fun i ->
        let store = service.make_store () in
        Sbft_store.Auth_store.set_cache store exec_cache;
        Replica.create ~env ~my:replica_keys.(i) ~store ~durable:durables.(i))
  in
  let latency = Stats.Latency.create () in
  let throughput = Stats.Throughput.create () in
  let clients =
    Array.init num_clients (fun i ->
        let cid = n + i in
        Client.create ~env ~id:cid ~keypair:client_kps.(i)
          ~on_complete:(fun ~timestamp ~latency:l ~value ->
            Stats.Latency.add latency l;
            Stats.Throughput.add throughput ~at:(Engine.now engine) 1;
            on_complete ~client:i ~timestamp ~value))
  in
  deliver :=
    (fun ctx ~src ~dst msg ->
      if dst < n then Replica.on_message replicas.(dst) ctx ~src msg
      else if dst < num_nodes then Client.on_message clients.(dst - n) ctx ~src msg);
  Array.iter
    (fun r -> Engine.dispatch engine ~dst:(Replica.id r) ~at:0 (fun ctx -> Replica.start r ctx))
    replicas;
  {
    engine;
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

let num_replicas t = Array.length t.replicas

let start_clients t ~requests_per_client ~make_op =
  Array.iteri
    (fun i c ->
      Client.run_closed_loop c ~num_requests:requests_per_client
        ~make_op:(fun k -> make_op ~client:i k)
        ~start_at:0)
    t.clients

let crash_replicas t ids = List.iter (Engine.crash t.engine) ids

(* Crash-amnesia: the node stops AND its volatile state (protocol
   state, service store, client table) is gone.  Only the durable WAL +
   block store survive — and the WAL loses its unsynced tail, exactly
   like a real fsync-based log.  The old object is retired at once, so
   the timers the engine holds for it run as no-ops at recovery; the
   rebuild itself happens then. *)
let crash_amnesia t id =
  Replica.retire t.replicas.(id);
  Engine.crash t.engine id;
  Sbft_store.Wal.drop_pending t.durables.(id).Replica.wal;
  t.amnesia.(id) <- true

(* Rollback attack: while the node is down, re-image its disk from a
   stale backup — the WAL rolls back to the newest stable checkpoint at
   or below [before] and the block ledger follows, so recovery restarts
   from an internally consistent but outdated prefix that has forgotten
   every later promise (the software analogue of the rollback attacks
   trusted monotonic counters exist to stop).  Only meaningful after
   [crash_amnesia]; a plain crash keeps volatile memory, which no disk
   tampering can rewind. *)
let rollback_replica t id ~before =
  let d = t.durables.(id) in
  let cp = Sbft_store.Wal.rollback_to_checkpoint d.Replica.wal ~before in
  Sbft_store.Block_store.rollback d.Replica.blocks ~above:cp;
  cp

(* Recover a crashed node.  After a plain crash the engine restarts the
   paused process, held timers included; an amnesia crash rebuilds the
   replica from scratch around its durable state and runs the recovery
   protocol. *)
let recover t id =
  if id < num_replicas t && t.amnesia.(id) then begin
    t.amnesia.(id) <- false;
    let durable =
      if t.config.Config.durable_wal then t.durables.(id)
      else begin
        (* Durability disabled: model the restart as losing the disk
           too, so the fuzzer can prove the WAL is load-bearing. *)
        let d =
          { Replica.wal = Sbft_store.Wal.create (); blocks = Sbft_store.Block_store.create () }
        in
        t.durables.(id) <- d;
        d
      end
    in
    let store = t.service.make_store () in
    Sbft_store.Auth_store.set_cache store t.exec_cache;
    let r = Replica.create ~env:t.env ~my:t.replica_keys.(id) ~store ~durable in
    t.replicas.(id) <- r;
    Engine.recover t.engine id;
    Engine.dispatch t.engine ~dst:id ~at:(Engine.now t.engine) (fun ctx -> Replica.recover r ctx)
  end
  else Engine.recover t.engine id

let run_for t duration = Engine.run_until t.engine (Engine.now t.engine + duration)

let total_completed t =
  Array.fold_left (fun acc c -> acc + Client.completed c) 0 t.clients

let same_request (a : Types.request) (b : Types.request) =
  Int.equal a.client b.client && Int.equal a.timestamp b.timestamp && String.equal a.op b.op

let agreement ~id ~last_executed ~committed_block ~state_digest replicas =
  let exception Violation of string in
  let max_executed = Array.fold_left (fun acc r -> max acc (last_executed r)) 0 replicas in
  (* Each digest is computed at most once, and only for a replica that
     shares its height with another. *)
  let digests = Array.map (fun r -> lazy (state_digest r)) replicas in
  try
    for seq = 1 to max_executed do
      let first = ref None in
      Array.iter
        (fun r ->
          match (committed_block r seq, !first) with
          | None, _ -> ()
          | Some block, None -> first := Some (r, block)
          | Some block, Some (r0, block0) ->
              if not (List.equal same_request block0 block) then
                raise
                  (Violation
                     (Printf.sprintf "seq=%d replicas %d/%d committed different blocks" seq
                        (id r0) (id r))))
        replicas
    done;
    Array.iteri
      (fun i ri ->
        let h = last_executed ri in
        Array.iteri
          (fun j rj ->
            if
              id ri < id rj && h > 0
              && Int.equal h (last_executed rj)
              && not (String.equal (Lazy.force digests.(i)) (Lazy.force digests.(j)))
            then
              raise
                (Violation
                   (Printf.sprintf "digest divergence at height %d between replicas %d/%d" h
                      (id ri) (id rj))))
          replicas)
      replicas;
    None
  with Violation v -> Some v

let agreement_ok t =
  Option.is_none
    (agreement ~id:Replica.id ~last_executed:Replica.last_executed
       ~committed_block:Replica.committed_block ~state_digest:Replica.state_digest t.replicas)
