(** Simulated write-ahead log for crash-amnesia recovery.

    Appends land in a pending list; [sync] group-commits them to the
    durable log.  A crash-amnesia restart keeps only the durable prefix
    ([drop_pending] models the lost tail), and [replay] tolerates a
    torn/corrupt tail by stopping at the first bad frame.

    The log keeps the records it is given and reports the exact size of
    their {!frame}s; the byte image is built only when something reads
    the log ([replay], [corrupt_tail], or a rewrite of a torn log).

    Pure storage — no simulator dependency.  [Sbft_core.Priced] charges
    [Cost_model.wal_append] per appended byte count and
    [Cost_model.wal_fsync] per effective [sync]. *)

type record =
  | View_entered of int
  | View_change_started of int
  | Accepted_pre_prepare of { seq : int; view : int; ops : Block_store.op list }
      (** the accepted block's operations, as the ledger stores them *)
  | Accepted_prepare of { seq : int; view : int; tau : string }
      (** [tau] is the serialized prepare certificate, so recovery can
          restore the replica's highest-prepare report for view changes. *)
  | Commit_cert of { seq : int; view : int; fast : bool }
  | Stable_checkpoint of { seq : int; digest : string; pi : string }
  | Client_row of Block_store.client_entry
      (** a client-table row, as checkpoints and state transfer carry it *)

type t

val create : unit -> t

val append : t -> record -> int
(** Buffer a record; returns [String.length (frame record)] (for cost
    charging), computed without encoding.  Raises exactly when [frame]
    would, leaving the log unchanged.  Not durable until [sync]. *)

val sync : t -> bool
(** Group-commit pending appends.  Returns [true] when a sync actually
    happened (caller charges one fsync), [false] when clean. *)

val drop_pending : t -> unit
(** Crash: the unsynced tail is gone. *)

val replay : t -> record list
(** Frame the durable prefix and {!parse} it back in append order,
    stopping at the first truncated or checksum-failing frame.  Records below the
    [truncate_below] horizon are filtered out (view records and the
    latest stable checkpoint at or below the horizon survive, the
    checkpoint hoisted to the front), so the replayed history does not
    depend on whether physical compaction has run yet. *)

val truncate_below : t -> seq:int -> unit
(** Checkpoint-time compaction: logically drop records whose sequence
    number is below [seq], keeping view records and the latest stable
    checkpoint at or below [seq].  The horizon bump is O(1); the
    physical rewrite is deferred until the durable log outgrows a
    doubling watermark, so callers may truncate on every
    stable-checkpoint advance without quadratic rewriting. *)

val durable_bytes : t -> int
(** Physical durable size in bytes; may include logically-dead frames
    not yet compacted away. *)

val appends : t -> int
val syncs : t -> int

val rollback_to_checkpoint : t -> before:int -> int
(** Rollback-attack helper for the schedule fuzzer: discard the pending
    frames and truncate the durable log to the prefix ending at the
    newest [Stable_checkpoint] whose seq is ≤ [before] — the disk image
    an attacker restores from an old backup.  Later view records and
    accepted pre-prepare/prepare promises vanish, so a recovery from
    this log resurrects pre-view-change state and forgets promises the
    network already saw.  Returns the checkpoint seq kept, or [0] when
    no checkpoint qualifies (the log becomes empty). *)

(** {2 Test hooks} *)

val frame : record -> string
(** The record's bytes in the log: varint payload length, 4-byte
    big-endian {!checksum} of the payload, then the payload. *)

val checksum : string -> int
(** FNV-1a over the bytes, folded to 32 bits. *)

val parse : string -> record list
(** Decode a byte image of frames in order, stopping at the first
    truncated or checksum-failing frame.  [parse (frame r) = [r]]
    whenever [frame r] does not raise. *)

val dirty : t -> bool
(** [true] when appends are pending a sync. *)

val reset : t -> unit
(** Wipe everything (models losing the disk; used when durability is
    disabled). *)

val corrupt_tail : t -> bytes:int -> unit
(** Test helper: overwrite the last [bytes] durable bytes with garbage
    to simulate a torn write.  The one way raw bytes enter the log:
    until a compaction or rollback parses them back into records, every
    read goes through the byte image. *)
