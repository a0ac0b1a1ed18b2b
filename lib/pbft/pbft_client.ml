module Types = Sbft_core.Types
module Client = Sbft_core.Client

type t = Client.t

(* The SBFT client behind a message adapter: its requests go out as
   PBFT requests, and PBFT replies come in as its f+1 reply path. *)
let create ~(env : Pbft_replica.env) ~id ~keypair ~on_complete =
  let send ctx ~src ~dst = function
    | Types.Request r -> env.send ctx ~src ~dst (Pbft_types.Request r)
    | _ -> ()
  in
  let env =
    { Sbft_core.Replica.engine = env.engine; trace = env.trace; keys = env.keys; send;
      exec_cost = env.exec_cost }
  in
  Client.create ~env ~id ~keypair ~on_complete

let on_message t ctx ~src = function
  | Pbft_types.Reply { view; replica; client; timestamp; seq; value } ->
      Client.on_message t ctx ~src
        (Types.Reply { view; replica; client; timestamp; seq; value })
  | _ -> ()

let run_closed_loop = Client.run_closed_loop
let completed = Client.completed
