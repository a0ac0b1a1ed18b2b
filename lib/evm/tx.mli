(** Ethereum transaction types modelled as replicated-service operations
    (paper §IV: "an interface for modeling the two main Ethereum
    transaction types (contract creation and contract execution) as
    operations in our replicated service").

    A third [Faucet] operation mints balance for an account; the paper's
    trace starts from a historical state we do not have, so workloads
    use it to seed accounts (substitution documented in DESIGN.md). *)

type t =
  | Create of { sender : string; value : U256.t; init_code : string; gas : int }
  | Call of { sender : string; to_ : string; value : U256.t; data : string; gas : int }
  | Faucet of { account : string; amount : U256.t }
  | Chunk of t list
      (** A client-side batch: the paper's clients pack transactions
          into ~12 KB chunks (≈50 transactions) per request. *)

val count : t -> int
(** Number of primitive transactions (chunks count their contents). *)

val encode : t -> string
val decode : string -> t option

(** {2 Receipts} *)

type receipt = {
  ok : bool;
  gas_used : int;
  output : string;  (** return data, or the 20-byte created address *)
}

val encode_receipt : receipt -> string
val decode_receipt : string -> receipt option
