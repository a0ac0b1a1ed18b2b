(** A set of replica ids with a running count: one byte per id, grown
    on demand, so membership, insertion and the count are O(1) and a
    set over n replicas costs about n bytes.  Quorum bookkeeping in both
    stacks goes through it: SBFT's share stashes and PBFT's prepare,
    commit and checkpoint votes. *)

type t

val create : unit -> t
(** An empty set.  No storage is allocated until the first {!add}. *)

val mem : t -> int -> bool

val add : t -> int -> unit
(** Add a non-negative id; adding an id already present does nothing.
    @raise Invalid_argument on a negative id. *)

val count : t -> int
(** Number of distinct ids added since creation or the last {!reset}. *)

val reset : t -> unit
(** Empty the set in place, keeping its storage. *)
