(** Operations of the replicated key-value service and their canonical
    wire encoding.

    Replication treats operations as opaque byte strings; this module is
    the concrete KV "service language" used by the paper's
    micro-benchmarks (random [Put]s, optionally batched 64 to a
    request). *)

type t =
  | Put of { key : string; value : string }
  | Get of { key : string }
  | Add of { key : string; delta : int }
      (** Read-modify-write counter increment, returning the new value.
          Unlike [Put], a duplicated execution is {e observable} (the
          counter overshoots), which is what the fuzzer's at-most-once
          oracle keys on. *)
  | Batch of t list
      (** Several operations submitted as one request — the paper's
          batching mode packs 64 puts per client request. *)
  | Noop  (** The "null" operation a view change fills empty slots with. *)

val encode : t -> string
val decode : string -> t option

val count_encoded : string -> int option
(** Number of primitive operations in an encoded op (a batch counts its
    elements), without decoding it: exactly [decode s] mapped through
    that count, but allocating no key or value. *)
