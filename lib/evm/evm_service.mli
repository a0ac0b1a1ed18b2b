(** The smart-contract ledger as a replicated service: decodes {!Tx}
    operations, charges intrinsic gas, runs the {!Interpreter} and
    returns an encoded {!Tx.receipt}.  Plugs into
    {!Sbft_store.Auth_store} exactly like the plain KV service, so the
    same replication engine drives both (paper §IV's layering). *)

val apply : Sbft_store.Auth_store.apply

val create : unit -> Sbft_store.Auth_store.t
(** Fresh authenticated store running the EVM ledger. *)
