(** The schedule DSL: a serializable adversarial scenario for the
    deterministic simulator.

    A schedule is a cluster shape (f, c, clients, window, topology,
    feature switches) plus a list of [(virtual_time, action)] fault
    injections — crash/recover, partition/heal, message drop
    probability, per-link delay, node isolation, and Byzantine
    behaviour flips.  The textual encoding is line-based and
    deterministic (emit ∘ parse ∘ emit is byte-identical), so any run —
    in particular a shrunk counterexample — reproduces exactly from a
    committed [.schedule] file:

    {v
    sbft-schedule v1
    name crashed-collector
    seed 7
    f 1
    c 1
    clients 2
    requests 6
    win 8
    topology lan
    acks on
    mutation none
    gst 15000
    horizon 60000
    expect pass
    step 1000 crash 3
    step 15000 heal
    end
    v} *)

type action =
  | Crash of int
  | Crash_amnesia of int
      (** Crash AND lose volatile state: on the matching [Recover] the
          replica is rebuilt from its WAL + persisted blocks (or from
          genesis when the [wal] switch is off). *)
  | Recover of int
  | Partition of int list list
      (** Groups of node ids; nodes not listed (typically the clients)
          join group 0. *)
  | Heal
  | Set_drop of float
  | Delay_link of { src : int; dst : int; delay_ms : int }
  | Isolate of int  (** all links to/from the node go down *)
  | Reconnect of int
  | Byzantine of int * Sbft_core.Replica.byzantine
      (** [honest] flips back (used by the post-GST quiet period). *)
  | Slow of int * float
      (** Gray failure: dilate the node's CPU by this factor (≥ 1.0;
          1.0 heals).  The node stays alive and correct — just slow. *)
  | Flap of { src : int; dst : int; period_ms : int; up_ms : int }
      (** Gray failure: the directed link passes traffic only during the
          first [up_ms] of each [period_ms] window (deterministic, no
          RNG).  Flap one direction only for an asymmetric link. *)
  | Unflap of int  (** clear flapping on every link touching the node *)
  | Fsync_delay of int * float
      (** Gray failure: multiply the node's WAL group-commit flush
          latency by this factor (fail-slow disk; ≥ 1.0, 1.0 heals). *)
  | Rollback of int * int
      (** [Rollback (node, before)]: while [node] is down after a
          [Crash_amnesia], re-image its disk from a stale backup — WAL
          and block ledger roll back to the newest stable checkpoint
          with seq ≤ [before] ({!Sbft_core.Cluster.rollback_replica}).
          The subsequent [Recover] restarts from the outdated prefix. *)

type step = { at_ms : int; action : action }

type expect = Expect_pass | Expect_fail of string | Expect_any
(** Corpus replay expectation: pass all oracles, fail the named oracle,
    or no expectation (fuzzer-generated schedules). *)

(** Adaptive-adversary policies ({!Adversary} interprets them).  Each
    policy observes the cluster through the restricted [obs_*] surface
    every tick and reacts — unlike the static [step] list, its actions
    depend on protocol state, but the whole loop stays deterministic
    and replayable because observation times and the decision rule are
    fixed by the schedule. *)
type policy =
  | Equivocating_collector
      (** the colluding primary equivocates exactly when enough slots
          are in flight for the split to stick, then goes quiet *)
  | Withhold_until_threshold
      (** pool replicas participate normally until a slot is one share
          short of its commit threshold, then fall silent — maximal
          damage per withheld share *)
  | View_change_storm
      (** pool replicas watch for any view-change activity and amplify
          it with spam votes for higher views *)
  | Checkpoint_split
      (** pool replicas wait for a checkpoint boundary, then isolate the
          slowest honest replica so its checkpoint diverges from the
          quorum's *)

type adversary = {
  policy : policy;
  pool : int list;  (** colluding replica ids (generator keeps ≤ f) *)
  budget : int;  (** max actions the policy may take over the run *)
  every_ms : int;  (** observation tick period *)
  from_ms : int;  (** first observation tick *)
  until_ms : int;  (** last tick; connectivity damage is undone here *)
}
(** Header-level adaptive attacker.  Shrinkable along [budget] (fewer
    actions) and the [from_ms .. until_ms] horizon (shorter observation
    window) — see {!Shrink}. *)

type t = {
  name : string;
  seed : int64;
  f : int;
  c : int;
  clients : int;
  requests : int;  (** closed-loop requests per client *)
  win : int;
  topology : Sbft_sim.Topology.kind;
  acks : bool;  (** {!Config.execution_acks} *)
  wal : bool;
      (** {!Config.durable_wal}: switching it off turns every
          crash-amnesia recovery into a from-genesis restart, which is
          how the corpus proves the WAL is load-bearing. *)
  rejoin_conservative : bool;
      (** {!Config.conservative_rejoin}: [eager] disables the
          state-transfer + view-discovery probes after recovery — the
          defenseless baseline the rollback-attack twins must fail. *)
  mutation : Sbft_core.Config.mutation option;
      (** {!config} runs [Weak_sigma_quorum] with the sanitizer off so
          the agreement oracle observes the divergence, and the other
          two with it on: the runtime cross-check derives thresholds
          independently of [Config], so the sanitizer oracle itself
          trips on the weakened quorum. *)
  adversary : adversary option;
  gst_ms : int option;
      (** Eventual synchrony: after this point the schedule guarantees a
          heal + quiet period, and the liveness oracle applies. *)
  horizon_ms : int;  (** run the simulation until this virtual time *)
  expect : expect;
  steps : step list;
}

val config : t -> Sbft_core.Config.t
(** The cluster configuration the schedule runs: full SBFT with the
    header's window, switches and mutation (see [mutation] for the
    sanitizer). *)

val num_replicas : t -> int
val num_nodes : t -> int

val byz_keywords : (Sbft_core.Replica.byzantine * string) list
val policy_keywords : (policy * string) list
(** The [byz] and [adversary] keywords, in the order {!Gen} draws from. *)

val default : name:string -> seed:int64 -> t
(** A small healthy baseline (f=1, c=0, 2 clients, no steps). *)

val sorted_steps : t -> step list
(** Steps in schedule order (stable by time). *)

val to_string : t -> string
val parse : string -> (t, string) result
(** [parse (to_string t)] succeeds when [t]'s configuration passes
    {!Sbft_core.Config.validate}, and re-emitting the result is
    byte-identical.  A configuration [Config.validate] rejects is a
    parse error carrying its message. *)

val save : path:string -> t -> unit
val load : path:string -> (t, string) result
