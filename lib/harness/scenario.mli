(** Benchmark scenario runner: one call = one data point of the paper's
    evaluation (a protocol variant × workload × client count × failure
    count × topology), measured over a warmed-up window of virtual
    time. *)

type protocol =
  | PBFT  (** scale-optimized PBFT baseline, n = 3f+1 *)
  | Linear_PBFT  (** ingredient 1 *)
  | Linear_PBFT_fast  (** ingredients 1+2 *)
  | SBFT of int  (** ingredients 1–3 (+4): the argument is c *)

val protocol_name : protocol -> string

type workload =
  | Kv of { batching : bool }
  | Eth

type t = {
  protocol : protocol;
  f : int;
  workload : workload;
  num_clients : int;
  failures : int;  (** backup replicas crashed from the start *)
  topology : Sbft_sim.Topology.kind;
  warmup : Sbft_sim.Engine.time;
  duration : Sbft_sim.Engine.time;  (** measured window after warmup *)
  seed : int64;
  cpu_scale : float;
      (** CPU speed factor; 0.5 models the ≈2 cores/replica of the
          paper's testbed packing. *)
  requests_per_client : int;
      (** Finite closed-loop request budget per client ([max_int] =
          run until the horizon).  Paper-scale rows use a finite budget
          so a run's cost is bounded by work, not wall time. *)
  crash_primary_at : Sbft_sim.Engine.time option;
      (** Crash the initial primary (node 0) at this virtual time — the
          view-change variant of the paper-scale family. *)
  tweak : Sbft_core.Config.t -> Sbft_core.Config.t;
      (** Final configuration hook, used by ablations (group signatures,
          collector staggering, fixed batching, ...). *)
}

val default :
  ?failures:int ->
  ?topology:Sbft_sim.Topology.kind ->
  ?warmup:Sbft_sim.Engine.time ->
  ?duration:Sbft_sim.Engine.time ->
  ?seed:int64 ->
  ?cpu_scale:float ->
  ?requests_per_client:int ->
  ?crash_primary_at:Sbft_sim.Engine.time ->
  ?tweak:(Sbft_core.Config.t -> Sbft_core.Config.t) ->
  protocol:protocol ->
  f:int ->
  workload:workload ->
  num_clients:int ->
  unit ->
  t

type point = {
  scenario : t;
  throughput_ops : float;  (** operations (not requests) per second *)
  median_latency_ms : float;
  mean_latency_ms : float;
  p90_latency_ms : float;
  p99_latency_ms : float;
  completed_requests : int;
  messages : int;
  bytes : int;
  fast_fraction : float;  (** fraction of blocks committed on the fast path *)
  view_changes : int;
  agreement : bool;
  host_seconds : float;
  events : int;  (** simulator events executed *)
  events_per_sec : float;  (** events per host second (host-dependent) *)
  minor_words : float;  (** minor-heap words allocated (deterministic) *)
  profile : Sbft_sim.Engine.profile;  (** per-phase event counts *)
}

val run : t -> point

val run_traced : t -> Sbft_sim.Trace.record list
(** Run the scenario once with event tracing enabled and return the raw
    trace stream (no measurement point, no logging).  Each call rebuilds
    the whole cluster from [t.seed], so two calls with the same [t] must
    produce identical streams — the property {!Sbft_sim.Replay} checks. *)

val ops_per_request : workload -> int
