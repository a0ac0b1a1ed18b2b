(** Ledger of committed decision blocks with commit certificates.

    Each replica persists committed blocks (the paper writes them to
    RocksDB); the block store also serves state transfer: a lagging
    replica fetches a checkpoint snapshot plus the blocks after it.
    Retention is bounded by the checkpoint protocol via {!prune_below}.

    The request record and the commit certificate are defined here and
    re-exported by [Sbft_core.Types], so an entry holds the protocol's
    own values: a replica's ledger entry points at the request list it
    agreed on, and a state-transfer answer ships entries as they are. *)

type request = {
  client : int;  (** issuing client's node id, [-1] for null fillers *)
  timestamp : int;  (** client-monotone timestamp (§V-A) *)
  op : string;  (** opaque service operation *)
  signature : Sbft_crypto.Pki.signature;
}
(** A client request.  Ledger entries keep the issuing client's identity
    so a replica replaying a transferred block suffix can apply the same
    exactly-once degradation the original executors did (a bare op
    string cannot be deduplicated against the client table). *)

type cert =
  | Cert_fast of Sbft_crypto.Field.t  (** σ(h) *)
  | Cert_slow of Sbft_crypto.Field.t * Sbft_crypto.Field.t
      (** τ(h) and τ(τ(h)).  Both are kept so a served block is
          independently verifiable: τ(τ(h)) alone cannot be checked
          without the τ(h) it signs. *)
(** The commit certificate a block was committed under.  A receiver of
    a served block re-verifies it against the block hash before
    adopting, so a Byzantine peer cannot make an honest replica execute
    uncertified operations via state transfer. *)

type entry = {
  seq : int;
  view : int;
  reqs : request list;
  cert : cert;
}

type client_entry = {
  ce_client : int;
  ce_timestamp : int;
  ce_value : string;
  ce_seq : int;
  ce_index : int;
}
(** One client-table row: last executed (timestamp, value, seq, index)
    for a client, as of the checkpoint. *)

type checkpoint = {
  cp_seq : int;
  cp_snapshot : string Lazy.t;
      (** Serialized only when first served. *)
  cp_table : client_entry list;
      (** Client table at the checkpoint, sorted by client id.  State
          transfer ships it with the snapshot so the receiver resumes
          request deduplication where the sender's state left off. *)
}

type t

val create : unit -> t

val add : t -> entry -> unit
(** Idempotent per sequence number (first write wins). *)

val find : t -> int -> entry option
val highest : t -> int
(** Highest stored sequence number; 0 when empty. *)

val sorted_seqs : t -> int list
(** All stored sequence numbers in ascending order (recovery replay and
    blocks-only state-transfer answers walk the ledger with this). *)

val prune_below : t -> int -> unit

val rollback : t -> above:int -> unit
(** Rollback-attack counterpart of {!Wal.rollback_to_checkpoint}: erase
    every block with seq > [above] and any checkpoint newer than
    [above], as restoring the disk from a stale backup would. *)

val set_checkpoint :
  t -> seq:int -> snapshot:string Lazy.t -> table:client_entry list -> unit
(** Retains the latest stable checkpoint (snapshot + client table). *)

val checkpoint : t -> checkpoint option

val entry_size : entry -> int
(** Approximate persisted size in bytes (for disk-cost accounting):
    each request's op plus 20 bytes, 16 bytes of header, and 8 bytes per
    certificate field element.  Client signatures are not counted: the
    commit certificate stands in for them. *)
