(** SBFT client (§V-A).

    A client sends each operation to the primary and, in the common
    case, accepts it on a {e single} execute-ack message: it checks the
    π(d) threshold signature on the state digest and the Merkle proof
    that its operation was executed at the claimed position with the
    claimed result.  If its retry timer expires it resends to all
    replicas and falls back to collecting [f + 1] matching direct
    replies (the PBFT-style path, also used for retransmissions of
    already-executed operations). *)

type t

val create :
  env:Replica.env ->
  id:int ->
  keypair:Sbft_crypto.Pki.keypair ->
  on_complete:(timestamp:int -> latency:Sbft_sim.Engine.time -> value:string -> unit) ->
  t
(** [id] is the client's node id (replica ids precede client ids). *)

val id : t -> int

val on_message : t -> Sbft_sim.Engine.ctx -> src:int -> Types.msg -> unit

val query :
  t -> Sbft_sim.Engine.ctx -> key:string ->
  callback:((string * int) option -> unit) -> unit
(** Read-only query (§IV): fetches [key]'s value from a {e single}
    replica and verifies the Merkle proof against the π-threshold-signed
    state digest; retries other replicas on timeout, calls
    [callback None] after a full unsuccessful cycle.  The result pairs
    the value with the certified height it was read at. *)

val run_closed_loop :
  t -> num_requests:int -> make_op:(int -> string) -> start_at:Sbft_sim.Engine.time -> unit
(** Schedule a closed loop of [num_requests] operations: request [i]
    uses [make_op i] and is submitted as soon as request [i-1]
    completes. *)

val completed : t -> int
val retries : t -> int

val last_timestamp : t -> int
(** Timestamp of the most recently submitted request (0 before any).
    Timestamps are assigned densely from 1, so this is also the number
    of distinct requests the client has issued — the validity and
    at-most-once oracles bound executed requests against it. *)
