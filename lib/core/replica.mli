(** The SBFT replica state machine (§V).

    One value of type {!t} is the full protocol state of one replica:
    fast path (pre-prepare → sign-share → full-commit-proof), the
    Linear-PBFT fallback (prepare → commit → full-commit-proof-slow),
    in-order execution with the sign-state / full-execute-proof /
    execute-ack pipeline, checkpointing and garbage collection, state
    transfer, and the dual-mode view change.

    Replicas are driven entirely by {!on_message} and timers they set
    themselves; wiring to the simulated network is provided by the
    {!Env} record (see {!Cluster} for standard construction). *)

type env = {
  engine : Sbft_sim.Engine.t;
  trace : Sbft_sim.Trace.t;
  keys : Keys.t;
  send : Sbft_sim.Engine.ctx -> src:int -> dst:int -> Types.msg -> unit;
      (** Transport: delivers [msg] to node [dst] (replica or client)
          with size/latency accounting. *)
  exec_cost : Types.request list -> Sbft_sim.Engine.time;
      (** Virtual CPU cost of executing a block of this service's
          operations (KV ≈ µs/op, EVM ≈ ms/tx). *)
}

type durable = { wal : Sbft_store.Wal.t; blocks : Sbft_store.Block_store.t }
(** The replica state that survives a crash-amnesia restart: the
    write-ahead log and the persisted decision-block ledger (which also
    holds the latest stable checkpoint snapshot).  Owned by the caller
    ({!Cluster}) so it can be handed to a rebuilt replica. *)

type t

val create :
  env:env ->
  my:Keys.replica_keys ->
  store:Sbft_store.Auth_store.t ->
  durable:durable ->
  t

val recover : t -> Sbft_sim.Engine.ctx -> unit
(** Crash-amnesia recovery on a freshly created replica whose [durable]
    state survived: reload the latest checkpoint, replay the WAL and the
    ledger (re-entering the highest logged view, restoring open-slot
    promises), then rejoin conservatively via state transfer and resume
    the liveness ticker.  Call instead of {!start}. *)

val retire : t -> unit
(** Permanently deactivate this replica object's timers.  Called at an
    amnesia crash, so the stale closures (liveness ticker, batch loop,
    collectors, retry timers) that the engine holds and runs at recovery
    cannot act on the rebuilt replica's world. *)

val id : t -> int
val view : t -> int
val last_executed : t -> int
val state_digest : t -> string

val store : t -> Sbft_store.Auth_store.t
(** The replica's service state (inspection/examples). *)

val on_message : t -> Sbft_sim.Engine.ctx -> src:int -> Types.msg -> unit

val start : t -> Sbft_sim.Engine.ctx -> unit
(** Arm initial timers (primary batch loop). Call once at time 0. *)

(** {2 Introspection for tests and benchmarks} *)

val last_stable : t -> int

val committed_block : t -> int -> Types.request list option
(** Requests committed at a sequence number, if any. *)

val sanitizer : t -> Sanitizer.t
(** The replica's protocol-invariant sanitizer (see {!Config.sanitized}). *)

val blocks_executed : t -> int
val view_changes_completed : t -> int
val fast_commits : t -> int
val slow_commits : t -> int

val certified_checkpoints : t -> (int * string) list
(** π-certified (sequence, state digest) pairs this replica currently
    holds, sorted by sequence — the fuzzer's checkpoint-consistency
    oracle compares them across non-faulty replicas. *)

val held_shares : t -> int -> int * int * int * int
(** [(sigma, tau, commit, pi)]: the threshold shares this replica still
    stores for slot [seq], as opposed to the signers it has counted
    ({!obs_slot_shares}).  σ and τ shares are dropped when the slot
    commits, π shares once the seq's π is known; the ττ ([commit]) stash
    is kept.  [(0,0,0,0)] for unknown slots. *)

val client_last_timestamp : t -> client:int -> int option
(** Highest client-request timestamp this replica has executed for
    [client] (its client-table row), if any. *)

val wal : t -> Sbft_store.Wal.t
(** The replica's write-ahead log (tests inspect append/sync counts). *)

val set_fsync_scale : t -> float -> unit
(** Gray-failure knob: multiply the WAL group-commit flush charge by
    this factor (fail-slow disk).  Clamped to ≥ 1.0; 1.0 = healthy.
    Deterministic — affects virtual time only. *)

(** {2 Adversary observation surface}

    The [obs_*] accessors are what an adaptive schedule-fuzzer attacker
    ({!Sbft_check.Adversary}) may inspect when choosing its next move:
    view/progress counters and per-slot share tallies — state a network
    adversary colluding with f replicas could learn from traffic and
    its own members.  Key material, honest replicas' unsent buffers and
    pending queues are deliberately not exposed.  The R6 taint lint
    treats [obs_*] results as attacker-controlled, so protocol handlers
    cannot grow a dependence on them. *)

val obs_view : t -> int
val obs_last_executed : t -> int
val obs_last_stable : t -> int
val obs_in_view_change : t -> bool

val obs_slot_shares : t -> int -> int * int * int
(** [(sigma, tau, commit)] share counts collected at this replica for a
    slot — what a colluding collector sees arriving; [(0,0,0)] for
    unknown slots. *)

val obs_frontier : t -> int
(** Highest slot with any protocol activity at this replica. *)

(** {2 Byzantine behaviours (tests only)} *)

type byzantine =
  | Honest
  | Equivocating_primary
      (** Sends different blocks to different replicas for the same
          sequence number. *)
  | Silent  (** Participates in nothing (crash-like, but still up). *)
  | Corrupt_shares  (** Sends invalid signature shares. *)
  | Wrong_exec_digest
      (** Signs and announces a bogus state digest in sign-state (attacks
          the execution collectors). *)
  | Stale_view_change
      (** Sends view-change messages with stale/partial information. *)

val set_byzantine : t -> byzantine -> unit
