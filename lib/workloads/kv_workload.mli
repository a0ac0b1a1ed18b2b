(** The paper's key-value micro-benchmark workloads (§IX,
    "Measurements"): each client sequentially sends requests; in
    no-batching mode a request is a single put of a random value to a
    random key; in batching mode each request contains 64 operations. *)

val batch_size : int
(** 64, as in the paper. *)

val single_op : client:int -> int -> string
(** Deterministic "random" single put for (client, request index). *)

val batch_op : client:int -> int -> string
(** A 64-operation batch request. *)

val make_op : batching:bool -> client:int -> int -> string

val ops_per_request : batching:bool -> int

val exec_cost : Sbft_core.Types.request list -> Sbft_sim.Engine.time
(** Virtual execution cost: per primitive KV operation plus block
    persistence. *)

val service : Sbft_core.Cluster.service
