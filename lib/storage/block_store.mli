(** Ledger of committed decision blocks with commit certificates.

    Each replica persists committed blocks (the paper writes them to
    RocksDB); the block store also serves state transfer: a lagging
    replica fetches a checkpoint snapshot plus the blocks after it.
    Retention is bounded by the checkpoint protocol via {!prune_below}. *)

type certificate =
  | Fast of string  (** σ(h) combined signature bytes *)
  | Slow of { tau : string; tau_tau : string }
      (** τ(h) and τ(τ(h)) combined signature bytes.  Both are kept so a
          served block is independently verifiable: τ(τ(h)) alone cannot
          be checked without the τ(h) it signs. *)

type op = {
  client : int;  (** issuing client's node id, [-1] for null fillers *)
  timestamp : int;  (** client request timestamp *)
  op : string;  (** encoded service operation as proposed (pre-dedup) *)
}
(** Persisted operations keep the issuing client's identity so a replica
    replaying a transferred block suffix can apply the same
    exactly-once degradation the original executors did (a bare op
    string cannot be deduplicated against the client table). *)

type entry = {
  seq : int;
  view : int;
  ops : op list;
  cert : certificate;
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
(** Approximate persisted size in bytes (for disk-cost accounting). *)

(** {2 Test hooks} *)

val mem : t -> int -> bool
