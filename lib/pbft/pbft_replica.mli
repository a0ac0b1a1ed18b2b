(** Scale-optimized PBFT replica — the paper's baseline system.

    Classic Castro-Liskov three-phase commit with all-to-all prepare and
    commit rounds ([n = 3f + 1]); every server message carries an RSA
    signature (following "Making BFT systems tolerate Byzantine faults",
    the configuration the paper benchmarks against); clients collect
    [f + 1] matching replies.  Includes batching, checkpointing with
    all-to-all checkpoint messages, and a PBFT-style view change. *)

type env = {
  engine : Sbft_sim.Engine.t;
  trace : Sbft_sim.Trace.t;
  keys : Sbft_core.Keys.t;  (** only the PKI part is used *)
  send : Sbft_sim.Engine.ctx -> src:int -> dst:int -> Pbft_types.msg -> unit;
  exec_cost : Pbft_types.request list -> Sbft_sim.Engine.time;
}

type t

val create : env:env -> id:int -> store:Sbft_store.Auth_store.t -> t

val id : t -> int
val last_executed : t -> int
val state_digest : t -> string
val view_changes_completed : t -> int

val committed_block : t -> int -> Pbft_types.request list option
val on_message : t -> Sbft_sim.Engine.ctx -> src:int -> Pbft_types.msg -> unit
val start : t -> Sbft_sim.Engine.ctx -> unit

val retire : t -> unit
(** Permanently silence this replica's timers (batch and liveness):
    armed callbacks still in flight become no-ops.  Used at cluster
    teardown / crash so a dead incarnation cannot tick on. *)

(** {2 Test hooks} *)

val view : t -> int

val checkpoint_vote_sets : t -> int
(** Introspection: how many sequence numbers' checkpoint votes the
    replica holds.  Votes at or below the stable checkpoint are dropped,
    so this stays bounded however long the run. *)
