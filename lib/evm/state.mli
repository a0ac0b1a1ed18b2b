(** World state: accounts (balance, nonce, code) and contract storage,
    kept in the authenticated {!Sbft_crypto.Merkle_map} so the
    replication layer's state digests and proofs cover the whole ledger
    (paper §IV: "the key-value store keeps the state of the ledger
    service ... the code of the contracts and the contracts' state").

    All functions are persistent: they return the updated map.
    Addresses are 20-byte strings. *)

type t = Sbft_crypto.Merkle_map.t

val address_of_hex : string -> string
(** Parses a 40-hex-digit (optionally 0x-prefixed) address. *)

val contract_address : sender:string -> nonce:int -> string
(** Deterministic address for a contract created by [sender] at [nonce]:
    last 20 bytes of keccak256(sender ‖ nonce).  (Real Ethereum RLP-
    encodes the pair first; the substitution is documented in
    DESIGN.md and is equally collision-resistant.) *)

val balance : t -> string -> U256.t
val set_balance : t -> string -> U256.t -> t
val add_balance : t -> string -> U256.t -> t

val transfer : t -> from_:string -> to_:string -> U256.t -> t option
(** [None] when the sender balance is insufficient. *)

val nonce : t -> string -> int
val incr_nonce : t -> string -> t

val code : t -> string -> string
val set_code : t -> string -> string -> t

val sload : t -> addr:string -> slot:U256.t -> U256.t
val sstore : t -> addr:string -> slot:U256.t -> U256.t -> t
(** Storing zero deletes the slot (keeps the trie canonical and makes
    the SSTORE refund semantics representable). *)

val account_exists : t -> string -> bool
