(** Runtime twin of the static lint: assert-style protocol invariants
    checked at replica state transitions.

    The sanitizer re-derives every quorum threshold from [f] and [c]
    alone ([n = 3f + 2c + 1], σ [= 3f + c + 1], τ [= 2f + c + 1],
    π [= f + 1], view-change [= 2f + 2c + 1], PBFT majority [= 2f + 1])
    so a drifting [Config] or a hard-coded literal anywhere in the
    protocol shows up as a {!Violation} the first time the code claims
    a quorum.  It also tracks per-replica commit/execute history:

    - a slot never commits two different request batches;
    - execution is gapless and monotonic (seq [= last + 1]);
    - no block executes before its commit proof was recorded;
    - views only move forward.

    Checks are on except under one test-only mutation
    ([Config.sanitized]); a disabled sanitizer
    is a no-op so the hot path pays one branch. *)

type t

exception Violation of string
(** Raised by every check on an invariant breach.  The message names
    the invariant and the offending values. *)

type quorum = Quorum_props.kind =
  | Sigma  (** fast-path commit, [3f + c + 1] *)
  | Tau  (** linear-PBFT commit, [2f + c + 1] *)
  | Pi  (** execution / checkpoint, [f + 1] *)
  | Vc  (** view change, [2f + 2c + 1] *)
  | Majority  (** classic PBFT quorum, [2f + 1] *)

val create : ?enabled:bool -> f:int -> c:int -> unit -> t
(** [enabled] defaults to [true]. *)

val check_config : t -> n:int -> unit
(** Verify the replica-count relation [n = 3f + 2c + 1] and every
    {!Quorum_props.obligations} entry (intersection, ordering and
    liveness) against the sanitizer's own arithmetic. *)

val check_quorum : t -> quorum -> count:int -> unit
(** Called where the protocol claims a quorum of [count] distinct
    shares/messages: violates when [count] is below the threshold or
    exceeds [n]. *)

val record_commit : t -> seq:int -> view:int -> digest:string -> unit
(** Record a locally committed block.  Violates on [seq < 1] or when
    [seq] was already committed with a different block digest. *)

val record_execute : t -> seq:int -> unit
(** Violates when execution is out of order ([seq <> last + 1]) or when
    no commit was recorded for [seq] (execution before commit proof). *)

val record_view_entry : t -> view:int -> unit
(** Violates when the view moves backwards or repeats. *)

val record_state_transfer : t -> seq:int -> unit
(** A π-certified snapshot legitimately advances the execution frontier
    past a gap; violates only when it would move the frontier back. *)

val prune_below : t -> seq:int -> unit
(** Drop commit records below the garbage-collection horizon. *)

(** {2 Test hooks} *)

val enabled : t -> bool

val checks_run : t -> int
(** Number of invariant checks performed so far (0 when disabled) —
    lets tests assert the sanitizer was actually exercised. *)

val threshold : t -> quorum -> int
