(** Protocol configuration: fault thresholds, window sizes, timers, and
    the feature switches that produce the paper's evaluation variants.

    SBFT runs [n = 3f + 2c + 1] replicas; the three threshold-signature
    schemes have thresholds [3f + c + 1] (σ, fast commit),
    [2f + c + 1] (τ, linear-PBFT commit), and [f + 1] (π, execution). *)

type mutation = Weak_sigma_quorum | Weak_tau_quorum | Weak_vc_quorum
      (** Test-only protocol weakenings.  [Weak_sigma_quorum] drops the
          σ fast-commit threshold to [2f + c] (below the [2f + c + 1]
          honest-intersection bound), so an equivocating primary can
          drive two conflicting σ certificates — proving the fuzzer's
          agreement oracle detects real safety violations.
          [Weak_tau_quorum] drops τ to [2f + c] (breaking τ-τ
          intersection), [Weak_vc_quorum] drops the view-change quorum
          to [2f + 2c] (breaking τ-vc intersection): both are caught at
          runtime by the {!Sanitizer}'s independent threshold
          derivation, and statically by the R12 quorum prover.
          Mutation-testing the checkers, never for deployment. *)

type t = {
  f : int;  (** tolerated Byzantine replicas *)
  c : int;  (** additional crashed/slow replicas the fast path tolerates *)
  win : int;  (** max outstanding decision blocks (paper: 256) *)
  fast_path : bool;  (** ingredient 2: optimistic σ path *)
  execution_acks : bool;
      (** ingredient 3: E-collectors + single-message client acks; when
          off, every replica replies to the client directly (f+1) *)
  fast_path_timeout : Sbft_sim.Engine.time;
      (** upper bound on the C-collector's wait before falling back to
          the τ path; the replica adapts the actual wait from profiled
          fast-path completion times (§V-E) *)
  collector_stagger : Sbft_sim.Engine.time;
      (** extra delay before the k-th redundant collector activates *)
  use_group_sig : bool;
      (** §VIII: n-of-n group signatures on the fast path while no
          failure has been observed, with automatic fallback *)
  optimistic_combine : bool;
      (** collectors combine threshold shares {e without} per-share
          verification and check the single combined signature, falling
          back to robust per-share identification only on failure
          ({!Sbft_crypto.Threshold.combine_verified}); off = the
          pessimistic verify-every-share baseline, kept as a benchmark
          reference point *)
  durable_wal : bool;
      (** replicas write protocol-critical transitions to a write-ahead
          log ({!Sbft_store.Wal}) with group-commit fsyncs, so a
          crash-amnesia restart recovers from the durable prefix; off =
          restarts lose everything (benchmark reference point and the
          fuzzer's proof that the fault class has teeth) *)
  conservative_rejoin : bool;
      (** after a crash-amnesia recovery the rebuilt replica probes the
          cluster before acting: a state-transfer probe fetches
          checkpoints/blocks it missed and a view-discovery probe (a
          stale view-change vote answered with stored new-view
          evidence) re-synchronizes its view — the software substitute
          for the trusted monotonic counters FastBFT-style protocols
          need against rollback attacks; off = "eager rejoin", the
          replica trusts whatever durable state it restarted from and
          participates immediately (the fuzzer's rollback-attack twins
          prove this switch is load-bearing) *)
  mutation : mutation option;
      (** [None] in every real configuration; see {!mutation}. *)
}

(** {2 Batch size and timers} *)

val max_batch : int
(** 64: operations per decision block, at most. *)

val batch_timeout : Sbft_sim.Engine.time
(** 5 ms: the primary proposes a partial batch after this delay. *)

val view_change_timeout : Sbft_sim.Engine.time
(** 2 s: base client-progress timer before a replica votes to change
    view (doubles per consecutive view change). *)

val client_retry_timeout : Sbft_sim.Engine.time
(** 4 s: a client re-broadcasts a request unanswered for this long. *)

val state_transfer_retry : Sbft_sim.Engine.time
(** 300 ms: base retry timer for an unanswered [Get_state] (doubles per
    attempt, capped; each retry rotates to the next peer). *)

val n : t -> int
(** [3f + 2c + 1]. *)

val sigma_threshold : t -> int
val tau_threshold : t -> int
val pi_threshold : t -> int

val quorum_vc : t -> int
(** View-change quorum [2f + 2c + 1]. *)

val quorum_bft : t -> int
(** Classic PBFT majority quorum [2f + 1] (baseline protocol). *)

val active_window : t -> int
(** Fast-path participation window [win/4] (§V-F). *)

val checkpoint_interval : t -> int
(** [win/2]. *)

val sanitized : t -> bool
(** Whether replicas run the {!Sanitizer} protocol-invariant checks at
    their state transitions: always, except under [Weak_sigma_quorum].
    That mutation breaks agreement by design, and the sanitizer would
    abort the run before the agreement oracle observes the divergence
    the mutation check exists to show.  [Weak_tau_quorum] and
    [Weak_vc_quorum] stay sanitized: the sanitizer re-derives the
    thresholds independently of [Config], so tripping it is the
    expected detection. *)

val linear_pbft : f:int -> t
(** Ingredient 1 only: collectors and threshold signatures, no fast
    path, direct f+1 client replies, c = 0. *)

val linear_pbft_fast : f:int -> t
(** Ingredients 1 + 2. *)

val sbft : f:int -> c:int -> t
(** Ingredients 1 + 2 + 3 (+ 4 when [c > 0]). *)

val validate : t -> (unit, string) result
