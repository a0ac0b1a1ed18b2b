(** Simulated PBFT deployment, mirroring {!Sbft_core.Cluster}. *)

type t = {
  engine : Sbft_sim.Engine.t;
  network : Sbft_sim.Network.t;
  trace : Sbft_sim.Trace.t;
  keys : Sbft_core.Keys.t;
  config : Sbft_core.Config.t;
  replicas : Pbft_replica.t array;
  clients : Pbft_client.t array;
  latency : Sbft_sim.Stats.Latency.t;
  throughput : Sbft_sim.Stats.Throughput.t;
}

val create :
  ?seed:int64 ->
  ?trace:bool ->
  ?cpu_scale:float ->
  config:Sbft_core.Config.t ->
  num_clients:int ->
  topology:(num_nodes:int -> Sbft_sim.Topology.t) ->
  service:Sbft_core.Cluster.service ->
  unit ->
  t
(** [config.f] determines n = 3f + 1 (the [c] field is ignored).
    @raise Invalid_argument if {!Sbft_core.Config.validate} rejects the
    configuration with [c = 0]. *)

val start_clients :
  t -> requests_per_client:int -> make_op:(client:int -> int -> string) -> unit

val crash_replicas : t -> int list -> unit
val run_for : t -> Sbft_sim.Engine.time -> unit
val total_completed : t -> int
val agreement_ok : t -> bool
(** {!Sbft_core.Cluster.agreement} over this cluster's replicas found no
    violation. *)
