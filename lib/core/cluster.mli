(** One-call construction of a simulated SBFT deployment: engine,
    network, key setup, [n] replicas and [m] clients, fully wired.

    Node ids: replicas are [0 .. n-1], clients [n .. n+m-1]. *)

type service = {
  make_store : unit -> Sbft_store.Auth_store.t;
      (** Fresh service state per replica. *)
  exec_cost : Types.request list -> Sbft_sim.Engine.time;
      (** Virtual CPU cost of executing one block of requests. *)
}

val kv_service : service
(** The replicated key-value store with per-op/persistence costs. *)

type t = {
  engine : Sbft_sim.Engine.t;
  network : Sbft_sim.Network.t;
  trace : Sbft_sim.Trace.t;
  keys : Keys.t;
  config : Config.t;
  replicas : Replica.t array;
  clients : Client.t array;
  latency : Sbft_sim.Stats.Latency.t;
  throughput : Sbft_sim.Stats.Throughput.t;
  service : service;
  env : Replica.env;
  replica_keys : Keys.replica_keys array;
  exec_cache : Sbft_store.Auth_store.cache;
  durables : Replica.durable array;
  amnesia : bool array;
      (** Per-replica flag: crashed with volatile state wiped; the next
          {!recover_replica} rebuilds from durable state. *)
}

val create :
  ?seed:int64 ->
  ?trace:bool ->
  ?cpu_scale:float ->
  ?on_complete:(client:int -> timestamp:int -> value:string -> unit) ->
  config:Config.t ->
  num_clients:int ->
  topology:(num_nodes:int -> Sbft_sim.Topology.t) ->
  service:service ->
  unit ->
  t
(** [cpu_scale] scales every node's CPU speed (0.5 = twice as fast;
    used to model the multicore replicas of the paper's testbed).
    [on_complete] observes every request completion ([client] is the
    client index, not its node id) — the schedule fuzzer's oracles
    record accepted values through it. *)

val num_replicas : t -> int
val client_id : t -> int -> int
(** Node id of the i-th client. *)

val start_clients :
  t -> requests_per_client:int -> make_op:(client:int -> int -> string) -> unit
(** Launch every client's closed loop at time 0; completions feed the
    cluster's latency/throughput accumulators. *)

val crash_replicas : t -> int list -> unit

val crash_amnesia : t -> int -> unit
(** Crash a replica AND mark its volatile state (protocol state, service
    store, client table) as lost.  The unsynced WAL tail is dropped, so
    only group-committed records survive — recovery must rebuild from
    the WAL plus the persisted block store. *)

val rollback_replica : t -> int -> before:int -> int
(** Rollback attack (schedule fuzzer): while replica [id] is down after
    {!crash_amnesia}, re-image its disk from a stale backup — the WAL is
    truncated to the newest stable checkpoint at or below [before]
    ({!Sbft_store.Wal.rollback_to_checkpoint}) and the block ledger
    follows.  Recovery then restarts from an internally consistent but
    outdated prefix that has forgotten every later prepare promise.
    Returns the checkpoint seq the disk rolled back to (0 = genesis). *)

val recover_replica : t -> int -> unit
(** Bring a crashed replica back.  After a plain crash it resumes with
    full memory; after {!crash_amnesia} a fresh replica is built around
    the durable state and runs {!Replica.recover} (when
    [Config.durable_wal] is off, the disk is lost too — the rebuilt
    replica starts from genesis). *)

val run_for : t -> Sbft_sim.Engine.time -> unit

val total_completed : t -> int
val agreement_ok : t -> bool
(** All replicas that executed a given sequence number executed the same
    block, and state digests agree at equal heights (the paper's safety
    property, checked post-hoc). *)

val agreement :
  last_executed:('r -> int) ->
  committed_block:('r -> int -> Types.request list option) ->
  state_digest:('r -> string) ->
  'r array ->
  bool
(** The {!agreement_ok} check over any replica implementation (the PBFT
    baseline shares it). *)
