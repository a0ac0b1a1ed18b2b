(** Hand-assembled contracts used by examples, tests and the
    Ethereum-like benchmark workload (stand-ins for the compiled
    Solidity contracts in the paper's 500k-transaction trace).

    Calling convention: calldata byte 0 is the selector; arguments are
    32-byte big-endian words at offsets 1, 33, 65, … Return values are
    single 32-byte words. *)

(** {2 Counter} — one storage slot.
    Selector 0: increment, returns the new value. Selector 1: get. *)

val counter_runtime : string
val counter_init : string
(** Init code that deploys {!counter_runtime}. *)

val counter_increment : string
val counter_get : string

(** {2 Token} — ERC20-style balances, one slot per holder
    (slot = holder address).  The constructor credits the creator with
    the initial supply.
    Selector 1: transfer(to, amount) — reverts on insufficient balance,
    returns 1.  Selector 2: balanceOf(addr). *)

val token_init : supply:U256.t -> string

val token_transfer : to_:string -> amount:U256.t -> string
val token_balance_of : addr:string -> string

(** {2 Escrow} — accepts contributions (CALLVALUE), tracking the total
    (slot 0) and per-contributor amounts (slot = contributor address).
    Selector 0: contribute, returns new total. Selector 1: total.
    Selector 2: contribution_of(addr). *)

val escrow_init : string

val escrow_contribute : string
val escrow_total : string
val escrow_contribution_of : addr:string -> string
