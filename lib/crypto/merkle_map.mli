(** Authenticated key-value map: a persistent binary Merkle trie keyed by
    the SHA-256 of the key (a compact Merkle Patricia analogue).

    This is the data-authentication layer of the paper's key-value store
    (§IV): [root] is the state digest [digest(D)], and {!prove}/{!verify}
    implement the proof that "at the state with digest [d], key [k] has
    value [v]" that lets a client trust a {e single} replica's reply.

    The structure is persistent (insertions share structure), so
    checkpoint snapshots are O(1) to retain. *)

type t

val empty : t
val cardinal : t -> int
val root : t -> string
(** Node hashes are computed on demand and memoized: [set] and [remove]
    hash only the key, and the first [root] (or {!prove}) after a batch
    of updates hashes each node they touched once. *)

val get : t -> string -> string option
val set : t -> key:string -> value:string -> t
val remove : t -> string -> t

val fold : (string -> string -> 'a -> 'a) -> t -> 'a -> 'a
(** Iterates all bindings (trie order). *)

type proof

val prove : t -> string -> proof option
(** Inclusion proof for a present key; [None] if absent. *)

val encode_proof : proof -> string
val decode_proof : string -> proof option

val implied_root : key:string -> value:string -> proof -> string
(** Root recomputed from the binding along the proof path. *)

(** {2 Test hooks} *)

val verify : root:string -> key:string -> value:string -> proof -> bool
