(** Key material for a deployment: the three threshold schemes (σ, τ, π),
    the optional n-of-n group-signature scheme for the failure-free fast
    path, and per-party PKI keypairs for replicas and clients.

    Created once by the trusted setup (the paper assumes a PKI setup
    between clients and replicas, §III); the per-replica signing keys
    are handed to each replica, verification material is public. *)

type verify_memo
(** {!verify_request}'s memo, keyed by the request's physical identity. *)

type t = {
  config : Config.t;
  sigma : Sbft_crypto.Threshold.t;
  tau : Sbft_crypto.Threshold.t;
  pi : Sbft_crypto.Threshold.t;
  group : Sbft_crypto.Group_sig.t;
  replica_pks : Sbft_crypto.Pki.public_key array;
  client_pks : Sbft_crypto.Pki.public_key array;  (** indexed client-id − n *)
  points : (string, Sbft_crypto.Field.t) Hashtbl.t;
      (** {!hash_to_field}'s memo, owned by the cluster. *)
  verified : verify_memo;  (** {!verify_request}'s memo, owned by the cluster. *)
}

type replica_keys = {
  replica_id : int;
  sigma_sk : Sbft_crypto.Threshold.signing_key;
  tau_sk : Sbft_crypto.Threshold.signing_key;
  pi_sk : Sbft_crypto.Threshold.signing_key;
  group_sk : Sbft_crypto.Group_sig.signing_key;
  pki_sk : Sbft_crypto.Pki.keypair;
}

val setup :
  Sbft_sim.Rng.t -> config:Config.t -> num_clients:int ->
  t * replica_keys array * Sbft_crypto.Pki.keypair array
(** [(public, per-replica secrets, per-client PKI keypairs)]. *)

val hash_to_field : t -> string -> Sbft_crypto.Field.t
(** {!Sbft_crypto.Threshold.hash_to_field} through the cluster's bounded
    memo: the point of a message every replica signs or checks is
    hashed once per cluster, not once per replica.  Pass it to the
    [Threshold] [_h] functions. *)

val points_cap : int
(** The memo holds at most this many messages; it is cleared when full. *)

val verify_request : t -> Types.request -> bool
