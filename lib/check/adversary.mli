(** Adaptive Byzantine adversary for the schedule fuzzer.

    Where a static schedule commits to its faults up front, an adaptive
    policy inspects the cluster each tick and reacts: equivocate exactly
    when a split can stick, withhold shares one short of a threshold,
    amplify a view change as it starts, cut off a straggler at a
    checkpoint boundary.  The loop is deterministic and replayable: the
    schedule fixes the tick times, the decision rules are pure functions
    of the observation, and the observation surface is restricted to the
    [obs_*] accessors ({!Sbft_core.Replica}) — counters and share
    tallies a real network adversary colluding with f replicas could
    learn, never key material or honest replicas' internal buffers.
    The R6 taint lint enforces the complement: protocol handlers cannot
    consume [obs_*] results.

    Policies act only through schedule actions — Byzantine flavour
    flips and node isolation — each costing one unit of the schedule's
    budget, which gives {!Shrink} two extra minimization
    axes (budget and observation horizon). *)

type protocol_view = {
  now_ms : int;
  n : int;
  primary : int;  (** primary of the highest view any replica occupies *)
  views : int array;
  executed : int array;
  stable : int array;
  frontier : int array;
  in_view_change : bool array;
  crashed : bool array;
  sigma_threshold : int;
  checkpoint_interval : int;
  shares_at : int -> int * int * int;
      (** σ/τ/commit share tallies for a slot, as seen by the pool's
          preferred colluder *)
}
(** Everything a policy may condition on.  Built from a cluster by
    {!view_of}; built by hand in unit tests. *)

type t

val create : Schedule.adversary -> t

val view_of :
  Sbft_core.Cluster.t -> pool:int list -> now_ms:int -> protocol_view
(** Snapshot the attacker-visible state of a live cluster. *)

val observe : t -> protocol_view -> Schedule.action list
(** One observation tick: the policy's reaction to the view, already
    budget-accounted (an exhausted adversary emits nothing) and
    deduplicated (re-flipping a replica to its current flavour is not
    an action).  Every action is a [Byzantine], [Isolate] or
    [Reconnect] of a replica; the runner applies them in order with
    the same [Runner.apply] static steps use. *)

val cleanup : t -> Schedule.action list
(** End of the observation window: reconnect every node the policy
    isolated and return flipped replicas to honest.  Budget-free —
    leftover isolation must never outlive the adversary, or an
    [Expect_pass] schedule could fail on residue rather than protocol. *)
