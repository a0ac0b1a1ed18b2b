open Sbft_sim
open Sbft_crypto
module Types = Sbft_core.Types
module Config = Sbft_core.Config
module Keys = Sbft_core.Keys

type pending = {
  timestamp : int;
  request : Types.request;
  sent_at : Engine.time;
  mutable replies : (int * string) list;
  mutable done_ : bool;
}

type t = {
  env : Pbft_replica.env;
  id : int;
  keypair : Pki.keypair;
  on_complete : timestamp:int -> latency:Engine.time -> value:string -> unit;
  mutable timestamp : int;
  mutable current : pending option;
  mutable believed_primary : int;
  mutable completed : int;
  mutable queue : (int -> string) option;
  mutable remaining : int;
  mutable issued : int;
}

let create ~env ~id ~keypair ~on_complete =
  {
    env;
    id;
    keypair;
    on_complete;
    timestamp = 0;
    current = None;
    believed_primary = 0;
    completed = 0;
    queue = None;
    remaining = 0;
    issued = 0;
  }

let id t = t.id
let completed t = t.completed
let config t = t.env.Pbft_replica.keys.Keys.config
let n_replicas t = Config.n (config t)

let send t ctx ~dst msg = t.env.Pbft_replica.send ctx ~src:t.id ~dst msg

let rec arm_retry t (p : pending) =
  ignore
    (Engine.set_timer t.env.Pbft_replica.engine ~node:t.id
       ~after:Config.client_retry_timeout (fun ctx ->
         if not p.done_ then begin
           for r = 0 to n_replicas t - 1 do
             send t ctx ~dst:r (Pbft_types.Request p.request)
           done;
           arm_retry t p
         end))

let submit t ctx ~op =
  t.timestamp <- t.timestamp + 1;
  let request = { Types.client = t.id; timestamp = t.timestamp; op; signature = "" } in
  Engine.charge ctx Cost_model.rsa_sign;
  let request =
    { request with Types.signature = Pki.sign t.keypair (Types.request_digest request) }
  in
  let p =
    {
      timestamp = t.timestamp;
      request;
      sent_at = Engine.ctx_now ctx;
      replies = [];
      done_ = false;
    }
  in
  t.current <- Some p;
  send t ctx ~dst:t.believed_primary (Pbft_types.Request request);
  arm_retry t p

let next_op t ctx =
  match t.queue with
  | Some make_op when t.remaining > 0 ->
      t.remaining <- t.remaining - 1;
      let op = make_op t.issued in
      t.issued <- t.issued + 1;
      submit t ctx ~op
  | _ -> ()

let on_message t ctx ~src msg =
  ignore src;
  match msg with
  | Pbft_types.Reply { view; replica; timestamp; value; _ } -> (
      t.believed_primary <- view mod n_replicas t;
      match t.current with
      | Some p when Int.equal p.timestamp timestamp && not p.done_ ->
          Engine.charge ctx Cost_model.rsa_verify;
          if not (List.mem_assoc replica p.replies) then begin
            p.replies <- (replica, value) :: p.replies;
            let matching =
              List.length (List.filter (fun (_, v) -> String.equal v value) p.replies)
            in
            if matching >= (config t).Config.f + 1 then begin
              p.done_ <- true;
              t.completed <- t.completed + 1;
              t.current <- None;
              t.on_complete ~timestamp:p.timestamp
                ~latency:(Engine.ctx_now ctx - p.sent_at)
                ~value;
              next_op t ctx
            end
          end
      | _ -> ())
  | _ -> ()

let run_closed_loop t ~num_requests ~make_op ~start_at =
  t.queue <- Some make_op;
  t.remaining <- num_requests;
  Engine.dispatch t.env.Pbft_replica.engine ~dst:t.id ~at:start_at (fun ctx ->
      next_op t ctx)
