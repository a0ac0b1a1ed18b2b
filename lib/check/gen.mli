(** Seeded random schedule generation.

    Generated schedules respect the fault model the safety proofs
    assume — at most [f] replicas ever turn Byzantine — so a failing
    safety oracle is always a genuine protocol bug, never an over-budget
    adversary. Crashes, partitions, drops, and delays are unbudgeted:
    they may stall progress but must never break safety.

    About 65% of schedules are eventually synchronous: at a generated
    GST every injected fault is undone (heal, drop 0, reconnect,
    recover, Byzantine replicas flip honest) and a quiet period follows,
    so they are marked [Expect_pass] and the liveness-after-GST oracle
    applies. The rest stay asynchronous ([Expect_any]: safety only). *)

type profile = {
  quick : bool;  (** smaller clusters, shorter horizons *)
  adversarial : bool;
      (** attach a random adaptive-adversary header to every schedule:
          a policy over the Byzantine pool (≤ f colluders), a small
          action budget, and an observation window that closes before
          GST so [Expect_pass] schedules keep their quiet period *)
}

val generate : ?profile:profile -> seed:int64 -> int -> Schedule.t
(** [generate ~seed index] is the [index]-th schedule of the seeded
    stream — deterministic in [(seed, index, profile)]. *)

val generate_mutation : seed:int64 -> int -> Schedule.t
(** A schedule for the oracle self-check: f=1, c=1 under the weak-sigma
    quorum mutation with an equivocating primary, which lets two
    conflicting commit certificates form — the agreement oracle must
    catch the resulting divergence. *)

(** {2 Test hooks} *)

val default_profile : profile
(** [{ quick = false; adversarial = false }] *)
