(** Robust k-of-n threshold signatures — the simulation stand-in for
    threshold BLS over BN-P254 (paper §III).

    Structure mirrors BLS threshold signatures exactly: the dealer Shamir-
    shares a master secret [s]; signer [i]'s share on message [m] is
    [s_i · H(m)] (multiplication in {!Field} playing the role of the
    group exponentiation); any [k] valid shares combine by Lagrange
    interpolation at zero into the unique signature [s · H(m)]; invalid
    shares from malicious signers are detected per-signer and filtered
    ("robustness").

    {b Security caveat (documented substitution):} verification uses the
    master secret as the verification key, so a party holding a verifier
    handle could forge.  Inside the simulation the adversary is
    protocol-level and never calls the signing API with keys it does not
    own, so unforgeability is enforced by construction; the scheme's
    {e interface, robustness semantics, sizes and costs} are what the
    protocol logic and benchmarks depend on. *)

type t
(** Public parameters + verification keys for one scheme instance. *)

type signing_key

type share = { signer : int; value : Field.t }
(** A signature share by 1-based signer [signer]. *)

type signature = Field.t

val setup : Sbft_sim.Rng.t -> n:int -> k:int -> t * signing_key array
(** [setup rng ~n ~k] deals keys for signers [1..n] with threshold [k].
    The returned array is indexed by [signer - 1]. *)

val hash_to_field : string -> Field.t
(** The message's point: [Field.of_digest (Sha256.digest msg)], the
    "hash-to-group" step every function taking [~msg] starts with.  The
    [_h] variants below take the point instead, so a caller that signs
    or checks one message many times (the cluster's {!Sbft_core.Keys}
    memo) hashes it once. *)

val share_sign : signing_key -> msg:string -> share
val share_sign_h : signing_key -> h:Field.t -> share
val share_verify : t -> msg:string -> share -> bool

val share_verify_cached_h : t -> h:Field.t -> share -> bool
(** {!share_verify} on the message point [h], through the scheme's
    per-(point, signer, value) verdict cache: a share the scheme
    instance has already checked (re-delivery, a second collector on the same node,
    view-change re-validation) is answered from the cache without
    recomputation.  The cache key includes the claimed share value, so
    a Byzantine signer re-sending a different share always verifies
    afresh. *)

val combine : t -> msg:string -> share list -> signature option
(** Pessimistic robust combination: verifies every share, drops invalid
    ones and duplicate signers, and combines the first [k] valid ones;
    [None] if fewer than [k] valid shares are present.  Costs O(k)
    per-share verifications even when all signers are honest — prefer
    {!combine_verified} on hot paths. *)

val combine_exn : t -> msg:string -> share list -> signature

(** Result of an optimistic {!combine_verified} call.  The counters let
    the caller charge simulated CPU for exactly the work performed. *)
type outcome = {
  signature : signature option;
      (** The combined signature, or [None] when fewer than [k] valid
          shares were available. *)
  fallback : bool;
      (** The optimistic combined-signature check failed (an invalid
          share was present) and per-share identification ran. *)
  bad_signers : int list;
      (** Signers whose shares failed verification during fallback
          identification (ascending; empty on the optimistic path).
          Callers should evict these from their stashes. *)
  coeffs_cached : bool;
      (** The Lagrange coefficient vector for the first combination was
          served from the signer-set memo. *)
  recombine_cached : bool;
      (** Same, for the post-fallback recombination (meaningful only
          when [fallback] and [signature] is [Some _]). *)
  fresh_checks : int;
      (** Per-share verifications actually computed during fallback —
          cache hits from re-delivered shares are excluded. *)
}

val combine_verified : t -> msg:string -> share list -> outcome
(** Optimistic combine-then-verify (the collector linearity argument of
    paper §IV): combine [k] shares {e without} verifying any of them,
    check the single combined signature, and only if that check fails
    fall back to robust per-share identification — excluding exactly
    the bad signers and recombining from the valid remainder.  With
    honest signers this costs one interpolation plus one signature
    verification instead of [k] share verifications; Byzantine shares
    cost one extra identification pass, and the per-(signer, message)
    cache makes re-delivered shares free.  The recombined fallback
    signature is built solely from individually verified shares, so it
    needs no second combined check.

    Lagrange coefficients come from per-scheme tables over the signer
    ids 1..n (built on the first miss in O(n) multiplications), and a
    coefficient vector is memoized per signer set. *)

val combine_verified_h : t -> h:Field.t -> share list -> outcome

val lagrange_coeffs : t -> int array -> Field.t array
(** [lagrange_coeffs t signers] is the Lagrange coefficient vector at
    zero for the ascending signer ids [signers] (each in [1..n]), from
    the scheme's tables and bypassing the signer-set memo: equal to
    {!Polynomial.lagrange_coeffs_at_zero} of the ids.
    @raise Invalid_argument unless [signers] ascends within [1..n]. *)

val verify : t -> msg:string -> signature -> bool
val verify_h : t -> h:Field.t -> signature -> bool

val forge_invalid_share : signer:int -> share
(** A deliberately invalid share, used by Byzantine test behaviours to
    exercise robustness. *)

val signature_bytes : signature -> string
(** Wire encoding of a combined signature (8 bytes of field element;
    size accounting uses {!signature_size}). *)

val signature_size : int
(** 33 — the byte size charged on the wire, matching BLS on BN-P254. *)

val share_size : int
(** 33 + signer index overhead. *)

(** {2 Test hooks} *)

val memo_cap : int
(** Each of the scheme's memos (signer-set coefficients, share
    verdicts) is cleared when it holds more than this many entries. *)
