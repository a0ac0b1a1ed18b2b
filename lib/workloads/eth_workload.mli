(** Synthetic Ethereum-like smart-contract workload.

    The paper replays 500,000 real Ethereum transactions (2 months of
    history, ≈5,000 contract creations ≈ 1%).  We cannot ship that
    proprietary trace, so this module generates a synthetic equivalent
    with the same structural mix and the same client-side framing
    (≈50 transactions per ≈12 KB chunk): mostly ERC20-style token
    transfers, some escrow contributions, a sprinkle of contract
    creations.  A deterministic genesis (accounts funded, token/escrow
    contracts deployed, balances distributed) plays the role of the
    historical chain state.  The substitution is documented in
    DESIGN.md. *)

val txs_per_chunk : int
(** ≈50, matching the paper's 12 KB chunks. *)

val account : int -> string
(** Deterministic 20-byte user address. *)

val token_address : int -> string
(** Address of the i-th pre-deployed token contract. *)

val make_chunk : client:int -> int -> string
(** The i-th request of a client: an encoded {!Sbft_evm.Tx.Chunk}. *)

val chunk_tx_count : string -> int
(** Transactions inside an encoded chunk (for ops-throughput metrics). *)

val exec_cost : Sbft_core.Types.request list -> Sbft_sim.Engine.time
(** Per-transaction EVM execution + persistence cost. *)

val service : Sbft_core.Cluster.service
(** EVM ledger service with the genesis pre-applied. *)

(** {2 Test hooks} *)

val num_tokens : int

val escrow_address : string
