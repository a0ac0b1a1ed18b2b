(** The replicated key-value service: {!Kv_op} semantics as an
    {!Auth_store.apply} function, plus convenience constructors. *)

val apply : Auth_store.apply
(** [Put] stores and returns ["ok"]; [Get] returns the value or [""];
    [Add] increments a decimal counter and returns its new value;
    [Noop] and undecodable operations return [""] without touching the
    state (undecodable operations cannot abort the state machine — all
    replicas must stay in lock step). *)

val create : unit -> Auth_store.t
(** Fresh authenticated store running the KV service. *)

val put : key:string -> value:string -> string
(** Encoded [Put] operation. *)

val get : key:string -> string

val add : key:string -> delta:int -> string
(** Encoded [Add] operation. *)

val read : Sbft_crypto.Merkle_map.t -> key:string -> string option
(** Direct (unproven) read of a key from a service state, for test
    oracles inspecting replica stores post-run. *)
