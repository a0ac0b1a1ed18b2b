(** CPU cost model for cryptographic and storage operations.

    The simulator charges these times on a node's CPU whenever protocol
    code performs the corresponding operation, reproducing the
    computational bottlenecks of the paper's testbed (32-VCPU Intel
    Broadwell E5-2686v4 @ 2.3 GHz).  Constants follow published
    measurements for the primitives the paper uses:

    - BLS on BN-P254 via RELIC (Beuchat et al. 2010; paper §VIII): a G1
      exponentiation ≈ 0.2 ms, a pairing ≈ 0.5 ms, so share signing (1
      exp) ≈ 0.2 ms, share/signature verification (2 pairings) ≈ 1.0 ms.
      Shares support batch verification "at nearly the cost of one" [22],
      modelled as one base verification plus a small per-share increment.
      Combination interpolates in the exponent: one exponentiation per
      share, parallelized in SBFT's collector threads (§VIII); we charge
      a per-share cost reflecting that parallelism.
    - RSA-2048 (Crypto++ official benchmarks, scaled to 2.3 GHz):
      sign ≈ 0.8 ms, verify ≈ 0.05 ms.
    - SHA-256 ≈ 3 ns/byte plus fixed overhead.
    - Key-value execution ≈ 4 µs/op; block persistence (RocksDB write
      batch) ≈ 50 µs + 25 ns/byte.
    - EVM smart-contract execution ≈ 1.1 ms/tx including persistence —
      calibrated so an unreplicated executor measures ≈ 840 tx/s, the
      paper's single-machine baseline.

    All values are virtual nanoseconds ({!Sbft_sim.Engine.time}). *)

type time = Sbft_sim.Engine.time

(** {2 Threshold BLS (simulated)} *)

val bls_share_sign : time
val bls_batch_verify : int -> time
(** [bls_batch_verify k]: verifying [k] shares as a batch. *)

val bls_combine : int -> time
(** [bls_combine k]: Lagrange interpolation in the exponent over [k]
    shares (collector-side, parallelized). *)

val bls_combine_cached : int -> time
(** [bls_combine_cached k]: interpolation when the Lagrange coefficient
    vector for the signer set is already memoized — the inversion batch
    and coefficient products are skipped ({!Threshold.combine_verified}
    reports the memo hit). *)

val bls_identify : int -> time
(** [bls_identify fresh]: robust per-share identification after a failed
    combined-signature check — one full share verification per cache
    miss (a batch check cannot name the culprits). *)

val group_combine : int -> time
(** n-of-n group-signature combination (additions only — cheap). *)

val bls_verify : time
(** Verifying a combined signature (2 pairings). *)

(** {2 Public-key and symmetric crypto} *)

val rsa_sign : time
val rsa_verify : time
val sha256 : int -> time
(** [sha256 len]: hashing [len] bytes. *)

(** {2 Merkle} *)

val merkle_prove : int -> time
val merkle_verify : int -> time
(** Parameter: path length. *)

(** {2 Execution and storage} *)

val kv_execute_op : time
val persist_block : int -> time
(** [persist_block bytes]: write-batch a decision block to disk. *)

val wal_append : int -> time
(** [wal_append bytes]: sequential append of a framed WAL record into
    the OS page cache (~1 ns/byte plus fixed overhead). *)

val wal_fsync_scaled : scale:float -> time
(** The group-commit flush of the WAL tail (120 µs, NVMe-class; charged
    once per handler that dirtied the log) stretched by a per-node
    degradation factor — the
    gray-failure "fail-slow disk" knob (firmware GC stalls, throttled
    cloud volumes).  Scales the flush only; appends still hit the page
    cache at full speed.  [scale <= 1.0] is the healthy baseline. *)

val evm_execute_tx : time
(** Average smart-contract transaction: EVM interpretation + state
    update + persistence (calibrated to the 840 tx/s baseline). *)

val message_auth_check : time
(** Point-to-point channel authentication check per message (TLS record
    MAC), charged by the network receive path indirectly. *)

(** Per-operation accounting of charged virtual CPU, for the benchmark
    regression harness's per-crypto-op breakdown.  Host-side diagnostic
    state only: written as charges happen, read by the harness between
    runs, never consulted by protocol code (so replay determinism is
    unaffected).  Disabled until the first {!Tally.reset}, so ordinary
    runs pay no accounting cost. *)
module Tally : sig
  val reset : unit -> unit
  (** Clear all counters and enable collection. *)

  val note : string -> time -> time
  (** [note label t] records [t] against [label] (when enabled) and
      returns [t], so charge sites wrap in place. *)

  val snapshot : unit -> (string * time) list
  (** Accumulated virtual nanoseconds per label, sorted by label. *)
end

(** {2 Test hooks} *)

val bls_share_verify : time
