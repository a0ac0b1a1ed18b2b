(** The dual-mode view-change safe-value computation (§V-G).

    Given a set of [2f + 2c + 1] view-change messages, the new primary
    (and, independently, every replica validating the new-view message)
    computes, for every sequence slot in the new window, either a value
    that can be committed immediately (a full fast or slow commit proof
    was included), a value that {e must} be re-proposed (it may have
    committed at some replica), or a no-op filler.

    The function is pure and deterministic, so all correct replicas
    derive identical decisions from the same message set — this is what
    makes the new-view message self-certifying (§VII: "the primary
    forwards both the decision and the signed messages so all replicas
    can repeat exactly the same computation").

    Safety argument (Lemmas VI.2 / VI.3): a slow-committed value is
    protected by the [f+c+1] honest members of its commit quorum whose
    prepare certificates dominate every fast candidate; a fast-committed
    value is protected by the [2f+c+1] honest members of its σ quorum,
    at least [f+c+1] of which appear in any view-change quorum, making
    it the unique fast value at the maximal view. *)

type decision =
  | Decide_fast of { sigma : Sbft_crypto.Field.t; reqs : Types.request list; view : int }
      (** σ(h) was presented: commit immediately. *)
  | Decide_slow of {
      tau : Sbft_crypto.Field.t;
      tau_tau : Sbft_crypto.Field.t;
      reqs : Types.request list;
      view : int;
    }  (** τ(τ(h)) was presented: commit immediately. *)
  | Adopt of Types.request list
      (** Potentially committed: the new view must re-propose it. *)
  | Fill_null  (** No constraint: fill with a no-op. *)

val null_request : Types.request
(** The no-op operation used to fill unconstrained slots. *)

val validate_message : keys:Keys.t -> Types.view_change -> bool
(** Structural and cryptographic validity of one view-change message:
    the checkpoint proof verifies and every per-slot certificate's
    signature/share verifies for its claimed (seq, view, requests). *)

val compute :
  keys:Keys.t -> new_view:int -> Types.view_change list ->
  int * (int * decision) list
(** [compute ~keys ~new_view msgs] returns [(ls, decisions)]: the
    starting stable sequence number and, for each slot from [ls + 1] up
    to the highest slot any message mentions, the safe decision.
    Invalid certificates inside otherwise processed messages are ignored
    (robustness against Byzantine view-change senders). *)

val decision_reqs : decision -> Types.request list
(** Requests a decision resolves to ([null_request] for {!Fill_null}). *)

(** {2 Test hooks} *)

val select_stable : keys:Keys.t -> Types.view_change list -> int
(** Highest last-stable sequence number backed by a valid checkpoint
    proof (0 when none). *)
