(** The paper's key-value micro-benchmark workloads (§IX,
    "Measurements"): each client sequentially sends requests; in
    no-batching mode a request is a single put of a random value to a
    random key; in batching mode each request contains 64 operations. *)

val make_op : batching:bool -> client:int -> int -> string
(** The request of [client] at index [i]: one deterministic "random"
    put, or with [batching] a 64-put batch. *)

val ops_per_request : batching:bool -> int

val service : Sbft_core.Cluster.service
