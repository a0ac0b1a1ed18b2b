(** Key material for a deployment: the three threshold schemes (σ, τ, π)
    and per-party PKI keypairs for replicas and clients.  The §VIII
    group-signature mode ([Config.use_group_sig]) has no keys of its
    own: it only changes what a σ combine is charged.

    Created once by the trusted setup (the paper assumes a PKI setup
    between clients and replicas, §III); the per-replica signing keys
    are handed to each replica, verification material is public. *)

type memos
(** The cluster's memos of {!hash_to_field}, {!request_digest},
    {!verify_request}, {!block_hash} and {!collector_group}, keyed by
    value. *)

type t = {
  config : Config.t;
  sigma : Sbft_crypto.Threshold.t;
  tau : Sbft_crypto.Threshold.t;
  pi : Sbft_crypto.Threshold.t;
  replica_pks : Sbft_crypto.Pki.public_key array;
  client_pks : Sbft_crypto.Pki.public_key array;  (** indexed client-id − n *)
  memos : memos;  (** owned by the cluster *)
}
(** The public half: the config, every scheme's verification material
    and the cluster's memos. *)

type replica_keys = {
  replica_id : int;
  sigma_sk : Sbft_crypto.Threshold.signing_key;
  tau_sk : Sbft_crypto.Threshold.signing_key;
  pi_sk : Sbft_crypto.Threshold.signing_key;
  pki_sk : Sbft_crypto.Pki.keypair;
}
(** One replica's secrets: its σ, τ and π key shares and its PKI keypair. *)

val setup :
  Sbft_sim.Rng.t -> config:Config.t -> num_clients:int ->
  t * replica_keys array * Sbft_crypto.Pki.keypair array
(** [(public, per-replica secrets, per-client PKI keypairs)]. *)

val hash_to_field : t -> string -> Sbft_crypto.Field.t
(** {!Sbft_crypto.Threshold.hash_to_field} through the cluster's bounded
    memo: the point of a message every replica signs or checks is
    hashed once per cluster, not once per replica.  Pass it to the
    [Threshold] [_h] functions. *)

val clear_at_checkpoint : t -> seq:int -> unit
(** A replica reached the stable checkpoint [seq].  The first call for
    each checkpoint above the last one clears all five memos: the
    requests and blocks at or below it are done, and an entry still in
    use is recomputed once, with the same value.  The memos then hold
    about one checkpoint interval of requests, where a cap alone lets
    them fill to {!points_cap}. *)

val request_digest : t -> Types.request -> string
(** {!Types.request_digest} through the cluster's memo, keyed by the
    fields the digest reads (client, timestamp, op), not the signature:
    the client's digest of its unsigned request and every replica's
    check of the signed one hash the op once per cluster. *)

val block_hash : t -> seq:int -> view:int -> reqs:Types.request list -> string
(** {!Types.block_hash} through the cluster's memo, keyed by
    [(seq, view, reqs)], with request digests from {!request_digest}. *)

val collector_group : t -> view:int -> seq:int -> salt:int -> (unit -> int list) -> int list
(** [collector_group t ~view ~seq ~salt pick] is [pick ()], memoized by
    [(view, seq, salt)]; {!Collectors} is the only caller. *)

val verify_request : t -> Types.request -> bool
(** The client's signature over {!request_digest} verifies under its
    public key.  The verdict is memoized by every field of the request,
    the signature included. *)

(** {2 Test hooks} *)

val points_cap : int
(** Each memo holds at most this many entries; it is cleared when full. *)

val points_held : t -> int
(** Entries in {!hash_to_field}'s memo. *)
