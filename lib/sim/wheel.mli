(** The engine's event queue: a 4-ary min-heap of values keyed by
    [(key0, key1)] pairs compared lexicographically.  The heap holds
    the keys and a slab index per entry, all ints, and the values sit
    in the slab, so sifting writes no pointer.  The engine's [key1] is
    a sequence number that is never reused, so the order is total and
    the pop sequence depends on the keys alone. *)

type 'a t

val create : dummy:'a -> 'a t
(** [dummy] fills the free slab slots, so the queue holds no popped or
    compacted-away value alive. *)

val push : 'a t -> key0:int -> key1:int -> 'a -> unit
(** O(log size); allocates only when the arrays grow. *)

val min_key0 : 'a t -> int
(** [key0] of the entry {!pop} removes next; [max_int] when empty. *)

val pop : 'a t -> 'a
(** Remove the entry with the smallest [(key0, key1)] and return its
    value, without allocating.  Raises [Invalid_argument] when empty. *)

val size : 'a t -> int

val compact : 'a t -> dead:('a -> bool) -> unit
(** Drop every entry whose value satisfies [dead] in one O(size) pass:
    the survivors are packed in place and re-heapified.  Their pop
    order is unchanged, since it depends only on the keys. *)
