(** Collector selection (§V): for each (view, sequence) pair, [c + 1]
    non-primary replicas act as C-collectors (commit collection) and
    [c + 1] as E-collectors (execution collection), chosen
    pseudo-randomly as a function of the pair so load spreads over all
    replicas.

    The returned lists are ordered by activation rank: collectors after
    the first are redundant and stagger their activation (§V-E).  For
    the Linear-PBFT fallback the primary is always appended as the last
    collector, guaranteeing progress whenever the primary is correct. *)

val primary : config:Config.t -> view:int -> int

val c_collectors : Keys.t -> view:int -> seq:int -> int list
(** [c + 1] distinct non-primary replicas (fewer only when n is tiny),
    memoized in the cluster's keys. *)

val slow_path_collectors : Keys.t -> view:int -> seq:int -> int list
(** C-collectors with the primary as the final fallback collector. *)

val exec_path_collectors : Keys.t -> view:int -> seq:int -> int list
(** E-collectors with [view]'s primary as the final fallback collector.
    The E-collectors are those of view 0: a block's execution collectors
    do not change across views. *)

val rank : int list -> int -> int option
(** Activation rank of a replica within a collector list. *)

(** {2 Test hooks} *)

val e_collectors : Keys.t -> view:int -> seq:int -> int list
