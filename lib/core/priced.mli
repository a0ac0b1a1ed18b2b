(** Priced calls: the one way protocol code pays for the work it models.

    Each function charges one operation's {!Sbft_crypto.Cost_model}
    price under the {!Sbft_crypto.Cost_model.Tally} label its section
    heading names, then does the work, through the {!Keys} memos where
    one exists.  Lint rule R10 bans [Engine.charge] and the priced
    primitives in every file with an [on_*] handler, and requires an
    [Engine.charge] in every function here that calls a primitive.
    Charges are never split or merged: {!Sbft_sim.Engine.charge} rounds
    each call when [cpu_scale <> 1].

    Deliberate mismatches between price and work:
    - [~group:true] prices a σ {!combine} as the §VIII [group_combine].
    - The RSA stand-in: replica messages carry no signature, so
      {!rsa_sign}, {!rsa_verify} and {!verify_reply} compute nothing;
      {!hash}, {!merkle_prove} and {!persist} price work a memo, a
      loader or the in-memory ledger does.
    - Unpriced: {!Sbft_store.Auth_store.execute_block} builds each
      block's [Merkle.build] tree over its ops (the digest's [ops_root])
      and nothing charges it.  Charging it moves virtual time, and with
      it the throughput and latency of every benchmark workload, so it
      waits for a change that re-vets the goldens. *)

open Sbft_sim
open Sbft_crypto

(** {2 Threshold signatures (["share_sign"], ["combine"],
    ["combined_verify"], ["share_identify"], ["share_batch_verify"],
    ["proof_verify"])} *)

val sign_block :
  Engine.ctx -> Keys.t -> Keys.replica_keys -> h:string -> Threshold.share * Threshold.share
(** σ and τ shares on block hash [h]: one [2 × bls_share_sign]. *)

val sign_share : Engine.ctx -> Keys.t -> Threshold.signing_key -> msg:string -> Threshold.share
(** [bls_share_sign]: the ττ commit and π sign-state shares. *)

type combined = {
  signature : Threshold.signature option;
  bad_signers : int list;  (** to evict from the stash *)
  fallback : bool;  (** the combined check failed; identification ran *)
}

val combine :
  Engine.ctx -> Keys.t -> Threshold.t -> k:int -> group:bool -> msg:string ->
  Threshold.share list -> combined
(** A σ/τ/ττ/π combine of [k] shares.  With [Config.optimistic_combine]:
    [bls_combine] ([bls_combine_cached] on a signer-set memo hit) and
    [bls_verify]; on failure also [bls_identify] of the fresh checks and,
    if a signature survives, a second combine.  Without:
    [bls_batch_verify k] and [bls_combine k]. *)

val verify : Engine.ctx -> Keys.t -> Threshold.t -> msg:string -> Threshold.signature -> bool
(** [bls_verify]. *)

val verify_cert : Engine.ctx -> Keys.t -> h:string -> Types.block_cert -> bool
(** σ(h): [bls_verify]; τ(h) with τ(τ(h)): one [2 × bls_verify]. *)

val validate_view_changes :
  Engine.ctx -> Keys.t -> Types.view_change list -> Types.view_change list
(** The new primary's {!View_change.validate_message} filter, one
    charge of [bls_verify] per message. *)

val validate_new_view : Engine.ctx -> Keys.t -> Types.view_change list -> Types.view_change list
(** A New_view's proofs by the same filter, one charge of
    [2 × bls_verify] per proof. *)

(** {2 Requests, hashing and the RSA stand-in (["rsa_verify"],
    ["rsa_sign"], ["hash"], ["mac"], ["merkle"])} *)

val verify_requests : Engine.ctx -> Keys.t -> Types.request list -> bool
(** {!Keys.verify_request} of each, one charge of [rsa_verify] per
    request. *)

val block_hash :
  Engine.ctx -> Keys.t -> seq:int -> view:int -> reqs:Types.request list -> string
(** {!Keys.block_hash}: [sha256] of the requests' bytes. *)

val hash : Engine.ctx -> int -> unit
val rsa_sign : Engine.ctx -> unit
val rsa_verify : Engine.ctx -> unit

val mac : Engine.ctx -> unit
(** The channel's per-message [message_auth_check]. *)

val merkle_prove : Engine.ctx -> leaves:int -> unit

(** {2 Execution and storage (["exec"], ["persist"], ["wal_append"],
    ["wal_fsync"])} *)

val execute :
  Engine.ctx -> Sbft_store.Auth_store.t -> exec_cost:(Types.request list -> Engine.time) ->
  seq:int -> Types.request list -> ops:string list -> string list
(** {!Sbft_store.Auth_store.execute_block} of the executed [ops], charged
    [exec_cost reqs] once per block per cluster: the store's shared cache
    keys the charge by [seq] and the requests' own ops
    ({!Sbft_store.Auth_store.exec_charge}). *)

val persist : Engine.ctx -> int -> unit
val wal_append : Engine.ctx -> Sbft_store.Wal.t -> Sbft_store.Wal.record -> unit

val wal_fsync : Engine.ctx -> Sbft_store.Wal.t -> scale:float -> unit
(** [wal_fsync_scaled ~scale], when there was a tail to flush. *)

(** {2 Client side (no Tally label: the breakdown is of replica CPU)} *)

val sign_request : Engine.ctx -> Keys.t -> Pki.keypair -> Types.request -> Types.request
(** The RSA signature over {!Keys.request_digest} ([rsa_sign]). *)

val verify_reply : Engine.ctx -> unit

val verify_execute_ack :
  Engine.ctx -> Keys.t -> seq:int -> index:int -> op:string -> value:string -> digest:string ->
  pi:Threshold.signature -> proof:string -> bool
(** π over the digest, then the op's proof: two charges, [bls_verify]
    and [merkle_verify 10]. *)

val verify_query_resp :
  Engine.ctx -> Keys.t -> seq:int -> key:string -> value:string -> digest:string ->
  pi:Threshold.signature -> proof:string -> bool
(** π over the digest (outside the memo), then the key's proof: two
    charges, [bls_verify] and [merkle_verify 16]. *)
