(** PBFT client: the SBFT {!Sbft_core.Client} over PBFT messages.  It
    sends to the primary, accepts a result once [f + 1] replicas reply
    with the same value, and retries to all replicas on timeout. *)

type t = Sbft_core.Client.t

val create :
  env:Pbft_replica.env ->
  id:int ->
  keypair:Sbft_crypto.Pki.keypair ->
  on_complete:(timestamp:int -> latency:Sbft_sim.Engine.time -> value:string -> unit) ->
  t

val on_message : t -> Sbft_sim.Engine.ctx -> src:int -> Pbft_types.msg -> unit

val run_closed_loop :
  t -> num_requests:int -> make_op:(int -> string) -> start_at:Sbft_sim.Engine.time -> unit

val completed : t -> int
