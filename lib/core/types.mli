(** Protocol message types, canonical hash inputs, and wire-size
    accounting.

    The simulator delivers messages as typed values (no byte shuffling),
    but two byte-level concerns stay real: the digest
    [h = H(seq ‖ view ‖ requests)] that every signature covers is
    computed over a canonical encoding, and every message has a
    realistic {!size} charged to the network model. *)

type request = {
  client : int;  (** client node id *)
  timestamp : int;  (** client-monotone timestamp (§V-A) *)
  op : string;  (** opaque service operation *)
  signature : Sbft_crypto.Pki.signature;
}

val request_digest : request -> string
(** SHA-256 of the request's client, timestamp and op: what the client
    signs.  Pure; {!Keys.request_digest} is the cluster's memo of it. *)

(** {2 View-change payloads (§V-G)} *)

type slow_cert =
  | Slow_committed of {
      tau : Sbft_crypto.Field.t;  (** τ(h), needed to check τ(τ(h)) *)
      tau_tau : Sbft_crypto.Field.t;
      view : int;
      reqs : request list;
    }
      (** full-commit-proof-slow was accepted *)
  | Slow_prepared of { tau : Sbft_crypto.Field.t; view : int; reqs : request list }
      (** highest view with an accepted prepare τ(h) *)
  | No_commit

type fast_cert =
  | Fast_committed of { sigma : Sbft_crypto.Field.t; view : int; reqs : request list }
      (** full-commit-proof was accepted *)
  | Fast_preprepared of {
      share : Sbft_crypto.Threshold.share;  (** σ_i(h) by the sender *)
      view : int;
      reqs : request list;
    }  (** highest view with an accepted pre-prepare *)
  | No_preprepare

type vc_slot = { slot_seq : int; slow : slow_cert; fast : fast_cert }

type block_cert =
  | Cert_fast of Sbft_crypto.Field.t  (** σ(h) *)
  | Cert_slow of Sbft_crypto.Field.t * Sbft_crypto.Field.t
      (** τ(h), τ(τ(h)) *)
(** Commit certificate shipped alongside a state-transferred block.  The
    receiver re-verifies it against the block hash before adopting, so a
    Byzantine peer cannot make an honest replica execute uncertified
    operations via state transfer. *)

type view_change = {
  vc_replica : int;
  vc_view : int;  (** the view being abandoned *)
  vc_ls : int;  (** last stable sequence number *)
  vc_checkpoint : (Sbft_crypto.Field.t * string) option;
      (** π(d_ls) and d_ls; [None] only when ls = 0 *)
  vc_slots : vc_slot list;  (** slots (ls, ls+win] with information *)
}

(** {2 Messages} *)

type msg =
  | Request of request
  | Pre_prepare of { seq : int; view : int; reqs : request list }
  | Sign_share of {
      seq : int;
      view : int;
      sigma_share : Sbft_crypto.Threshold.share;
      tau_share : Sbft_crypto.Threshold.share;
      replica : int;
    }
  | Full_commit_proof of { seq : int; view : int; sigma : Sbft_crypto.Field.t }
  | Prepare of { seq : int; view : int; tau : Sbft_crypto.Field.t }
  | Commit of { seq : int; view : int; share : Sbft_crypto.Threshold.share }
      (** τ_i(τ(h)) *)
  | Full_commit_proof_slow of {
      seq : int;
      view : int;
      tau : Sbft_crypto.Field.t;
      tau_tau : Sbft_crypto.Field.t;
    }
  | Sign_state of { seq : int; digest : string; share : Sbft_crypto.Threshold.share }
      (** π_i(d) *)
  | Full_execute_proof of { seq : int; digest : string; pi : Sbft_crypto.Field.t }
  | Execute_ack of {
      view : int;  (** sender's view, lets clients track the primary *)
      seq : int;
      index : int;  (** position of the client's op in the block *)
      client : int;
      timestamp : int;
      value : string;
      state_digest : string;
      pi : Sbft_crypto.Field.t;
      proof : string;  (** serialized {!Sbft_store.Auth_store} op proof *)
    }
  | Reply of {
      view : int;
      replica : int;
      client : int;
      timestamp : int;
      seq : int;
      value : string;
      signature : Sbft_crypto.Pki.signature;
    }  (** direct f+1 acknowledgement path *)
  | View_change of view_change
  | New_view of { view : int; proofs : view_change list }
  | Get_block of { seq : int; replica : int }
  | Block_resp of { seq : int; view : int; reqs : request list }
  | Query of { client : int; qid : int; query : string }
      (** Read-only query (§IV): answered by one replica against its
          latest π-certified state, no consensus round. *)
  | Query_resp of {
      client : int;
      qid : int;
      seq : int;  (** height of the certified state *)
      digest : string;
      pi : Sbft_crypto.Field.t;
      value : string;
      proof : string;
    }
  | Get_state of { upto : int; replica : int }
  | State_resp of {
      snapshot : string;
      snap_seq : int;
      pi : Sbft_crypto.Field.t;  (** π(d) over the snapshot's digest *)
      digest : string;
      blocks : (int * int * request list * block_cert) list;
          (** (seq, view, reqs, cert) after snap; the receiver verifies
              each [cert] before adopting the block *)
      table : Sbft_store.Block_store.client_entry list;
          (** Sender's client table as of [snap_seq], so the receiver
              resumes exactly-once request deduplication. *)
    }

val block_hash_with :
  digest:(request -> string) -> seq:int -> view:int -> reqs:request list -> string
(** {!block_hash} with each request's digest taken from [digest], which
    must agree with {!request_digest}. *)

val tau2_message : Sbft_crypto.Field.t -> string
(** Message covered by the second-level commit signature τ(τ(h)): the
    byte encoding of τ(h). *)

val pi_message : seq:int -> digest:string -> string
(** Message covered by execution signatures π_i: binds the sequence
    number and the state digest. *)

val requests_bytes : request list -> int

val size : msg -> int
(** Wire size in bytes for network-cost accounting: payload plus
    signature material (33-byte combined threshold signatures, 37-byte
    shares, 256-byte RSA signatures, 32-byte digests). *)

val kind : msg -> string
(** Short tag for tracing, e.g. ["pre-prepare"]. *)

(** {2 Test hooks} *)

val block_hash : seq:int -> view:int -> reqs:request list -> string
(** The [h = H(s ‖ v ‖ r)] every commit signature covers (canonical
    encoding; SHA-256).  Pure; {!Keys.block_hash} is the cluster's memo
    of it. *)
