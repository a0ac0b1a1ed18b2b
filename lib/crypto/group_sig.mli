(** n-of-n "group signature" fast mode (paper §VIII).

    When no failure has been detected recently, SBFT's collectors use a
    BLS {e group} signature (an n-out-of-n multisignature) instead of a
    k-of-n threshold signature: combination is a plain sum of shares —
    much cheaper than Lagrange interpolation — at the cost of requiring
    every signer.  The implementation mirrors {!Threshold} with additive
    instead of polynomial shares. *)

type t
type signing_key
type share = { signer : int; value : Field.t }
type signature = Field.t

val setup : Sbft_sim.Rng.t -> n:int -> t * signing_key array

(** Result of an optimistic {!combine_verified} call. *)
type outcome = {
  signature : signature option;
      (** [None] when a signer is missing or (after fallback) a share
          was invalid — n-of-n combination admits no exclusion. *)
  fallback : bool;  (** the combined check failed; identification ran *)
  bad_signers : int list;  (** invalid signers, ascending *)
}

(** {2 Test hooks} *)

val share_sign : signing_key -> msg:string -> share

val share_verify : t -> msg:string -> share -> bool

val combine : t -> msg:string -> share list -> signature option
(** Requires a valid share from {e every} one of the [n] signers, each
    verified individually before summation. *)

val verify : t -> msg:string -> signature -> bool

val combine_verified : t -> msg:string -> share list -> outcome
(** Optimistic combine-then-verify: sums all [n] shares without
    per-share checks and verifies the single combined signature.  On
    failure, identifies the bad signers so the caller can switch to the
    threshold scheme without them (the paper's group-signature fast
    mode falls back to threshold signatures on the first failure). *)
