(** Authenticated service state: the paper's §IV data-authentication
    interface, generic over the service's operation semantics.

    An {!t} executes decision blocks sequentially against a
    {!Sbft_crypto.Merkle_map} state.  After executing block [s] it can
    produce the digest [d = digest(D_s)] and two kinds of proofs:

    - {b operation proofs} — [proof(o, l, s, D, val)]: [o] was executed
      as the [l]-th operation of block [s] and returned [val], relative
      to the state whose digest is [d].  These back the single-message
      execute-acks SBFT sends to clients.
    - {b query proofs} — [proof(q, s, D, val)]: at state [D_s], key [k]
      holds value [v].  These let a client read from a single replica.

    The digest binds the state root, the block's operation-tree root and
    the sequence number: [d_s = H(tag ‖ s ‖ state_root ‖ ops_root_s)].
    Proof verification ({!verify_op_proof}, {!verify_query_proof}) is a
    pure function of the digest, so clients need no state. *)

type apply = Sbft_crypto.Merkle_map.t -> string -> Sbft_crypto.Merkle_map.t * string
(** Service semantics: [apply state op] returns the new state and the
    operation's output value.  Must be deterministic. *)

type t

val create : apply:apply -> unit -> t

(** {2 Shared execution cache}

    In a simulated deployment every honest replica executes the same
    deterministic block sequence.  A cluster-wide cache memoizes
    [execute_block] results keyed by (sequence, pre-state root,
    operations), so the host computes each block once and all replicas
    share the resulting persistent state structurally.  The key is
    exact: two different op lists never share an entry, and a lookup
    hashes only the sequence and the root, not the payload.  This is
    a pure simulation optimization: per-replica {e virtual} CPU time is
    still charged by the protocol layer, and a replica whose state
    diverges (different pre-state root) misses the cache and executes
    for real.

    Entries do not outlive their use.  The store that executes a block
    first makes its entry with [takers - 1] takes left; each other
    store's hit takes one, and the last take removes the entry.
    {!gc_below} drops every entry below the GC horizon, so a store that
    never takes its share (crashed, lagging, diverged) pins nothing past
    a stable checkpoint.  A store that misses a removed entry executes
    the block itself, with identical outputs, state and charge. *)

type cache

val new_cache : ?takers:int -> unit -> cache
(** [takers] is the number of stores that execute each block through
    this cache: the cluster's replica count.  Count replicas, not
    {!set_cache} calls: a crash-amnesia rebuild attaches a fresh store
    for the same replica.  Without [takers], entries leave only through
    {!gc_below}. *)

val set_cache : t -> cache -> unit
(** Install a shared cache (call before executing any block). *)

val exec_charge : t -> seq:int -> ops:string list -> (unit -> int) -> int
(** [exec_charge t ~seq ~ops compute] is [compute ()], the simulated
    execution charge of block [seq] whose requests carry the op strings
    [ops], memoized in the shared cache so the host computes it once
    per block, not once per replica.  [compute] must be a function of
    [ops] alone.  The key is exact: pass the requests' own ops, not the
    deduplicated ones the block executes — a duplicate request and a
    null filler both execute as [""] but are charged differently.
    Without a cache, [compute ()] runs every time. *)

val last_executed : t -> int
(** Sequence number of the last executed block; 0 before any. *)

val clone : t -> t
(** Independent copy sharing the (persistent) state structurally; used
    to stamp out per-replica stores from one bootstrapped genesis. *)

val bootstrap : t -> ops:string list -> unit
(** Applies genesis operations directly to the state without recording
    a decision block.  Deterministic setup (accounts, contract
    deployments) so replicas start from identical non-empty states.
    @raise Invalid_argument after any block has been executed. *)

val state : t -> Sbft_crypto.Merkle_map.t

val execute_block : t -> seq:int -> ops:string list -> string list
(** Executes the block's operations in order; returns their outputs.
    @raise Invalid_argument unless [seq = last_executed + 1]. *)

val digest : t -> string
(** Digest of the state after the last executed block. *)

val digest_at : t -> seq:int -> string option
(** Digest after block [seq], if still retained (see {!gc_below}). *)

val output_at : t -> seq:int -> index:int -> string option
val ops_at : t -> seq:int -> string list option

val prove_op : t -> seq:int -> index:int -> string option
(** Serialized operation proof, or [None] if [seq] was garbage-collected
    or [index] out of range. *)

val prove_query : t -> key:string -> (string * string) option
(** [(value, proof)] for a present key at the current state. *)

val verify_op_proof :
  digest:string -> seq:int -> index:int -> op:string -> value:string ->
  proof:string -> bool
(** Pure client-side verification (the [verify(d, o, val, s, l, P)] of
    §IV). *)

val verify_query_proof :
  digest:string -> seq:int -> key:string -> value:string -> proof:string -> bool

val gc_below : t -> seq:int -> unit
(** Drop retained per-block proof material for blocks [< seq], and the
    shared cache's entries (blocks and charges) below [seq]. *)

val snapshot : t -> string
(** Serialized current state + sequence number, for state transfer.
    Digest-stable: restoring yields the same state digest. *)

val delayed_snapshot : t -> string Lazy.t
(** Captures the current state immediately but serializes only when
    forced (checkpoints are retained often, served rarely). *)

val load_snapshot : t -> string -> (unit, string) result
(** Replaces the store's state with the snapshot's. *)

val load_snapshot_checked :
  t -> string -> expect:string -> (unit, string) result
(** Stages the snapshot in scratch storage, computes its state digest,
    and installs it {e only} if the digest equals [expect] — the store
    is untouched on any error, so an unverified snapshot can never
    clobber live state.  This is the entry point state transfer must
    use: the caller supplies the π-certified digest as [expect]. *)

val snapshot_digest_info : string -> (int * string) option
(** [(seq, ops_root)] carried by a snapshot, without loading it. *)
