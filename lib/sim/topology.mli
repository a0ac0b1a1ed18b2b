(** Geographic placement of nodes and inter-region latency.

    The paper evaluates three settings: a single data-center LAN, a
    continent-scale WAN (5 regions, 2 availability zones each), and a
    world-scale WAN (15 regions across all continents).  A topology maps
    every node to a region and gives a one-way base latency between any
    two regions; the network layer adds jitter on top. *)

type t

(** [lan ~num_nodes] : all nodes in one region, 0.15 ms one-way. *)
val lan : num_nodes:int -> t

(** [continent ~num_nodes] : 10 zones in 5 regions of one continent
    (intra-zone 0.15 ms, cross-zone 0.6 ms, cross-region 8–35 ms one-way),
    nodes assigned round-robin — mirrors the paper's 5-region/2-AZ setup. *)
val continent : num_nodes:int -> t

(** [world ~num_nodes] : 15 regions spread over all continents with
    one-way latencies from 0.15 ms (same region) up to ~150 ms. *)
val world : num_nodes:int -> t

type kind = [ `Lan | `Continent | `World ]
(** The three profiles above, by name. *)

val kind_names : (kind * string) list
(** Each kind with the name the schedule DSL, [bench/main.exe point
    --topology] and the benchmark headers use for it. *)

val of_kind : kind -> num_nodes:int -> t
(** [of_kind `Lan] is {!lan}, and so on. *)

val num_nodes : t -> int
(** Number of nodes the topology was built for. *)

(** [sample_latency t rng ~src ~dst] adds multiplicative jitter. *)
val sample_latency : t -> Rng.t -> src:int -> dst:int -> int

(** {2 Test hooks} *)

(** [make ~region_of ~one_way_ms ~jitter] builds a custom topology.
    [region_of.(node)] is the node's region; [one_way_ms.(a).(b)] the
    base one-way latency in milliseconds between regions [a] and [b];
    [jitter] the relative standard deviation of the lognormal-ish jitter
    applied per message (e.g. [0.1]). *)
val make : region_of:int array -> one_way_ms:float array array -> jitter:float -> t

val num_regions : t -> int

(** [base_latency t ~src ~dst] is the base one-way latency in
    nanoseconds between two {i nodes}. *)
val base_latency : t -> src:int -> dst:int -> int
