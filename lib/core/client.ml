open Sbft_sim
open Sbft_crypto

type pending = {
  timestamp : int;
  op : string;
  request : Types.request;
  sent_at : Engine.time;
  mutable replies : (int * string) list; (* replica -> value, f+1 path *)
  mutable done_ : bool;
}

type query_pending = {
  q_key : string;
  mutable q_done : bool;
  q_callback : (string * int) option -> unit;
}

type t = {
  env : Replica.env;
  id : int;
  keypair : Pki.keypair;
  on_complete : timestamp:int -> latency:Engine.time -> value:string -> unit;
  mutable timestamp : int;
  mutable current : pending option;
  mutable believed_primary : int;
  mutable completed : int;
  mutable retries : int;
  mutable queue : (int -> string) option; (* closed-loop generator *)
  mutable remaining : int;
  mutable issued : int;
  mutable next_qid : int;
  queries : (int, query_pending) Hashtbl.t;
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
    retries = 0;
    queue = None;
    remaining = 0;
    issued = 0;
    next_qid = 0;
    queries = Hashtbl.create 8;
  }

let id t = t.id
let completed t = t.completed
let retries t = t.retries
let last_timestamp t = t.timestamp

let config t = t.env.Replica.keys.Keys.config
let num_replicas t = Config.n (config t)

let send t ctx ~dst msg = t.env.Replica.send ctx ~src:t.id ~dst msg

let rec arm_retry t (p : pending) =
  ignore
    (Engine.set_timer t.env.Replica.engine ~node:t.id ~after:Config.client_retry_timeout
       (fun ctx -> if not p.done_ then retry t ctx p))

(* Resend to all replicas and ask for the f+1 path (§V-A). *)
and retry t ctx p =
  t.retries <- t.retries + 1;
  for r = 0 to num_replicas t - 1 do
    send t ctx ~dst:r (Types.Request p.request)
  done;
  arm_retry t p

let submit t ctx ~op =
  match t.current with
  | Some p when not p.done_ -> invalid_arg "Client.submit: operation already in flight"
  | _ ->
      t.timestamp <- t.timestamp + 1;
      let request =
        Priced.sign_request ctx t.env.Replica.keys t.keypair
          { Types.client = t.id; timestamp = t.timestamp; op; signature = "" }
      in
      let p =
        {
          timestamp = t.timestamp;
          op;
          request;
          sent_at = Engine.ctx_now ctx;
          replies = [];
          done_ = false;
        }
      in
      t.current <- Some p;
      send t ctx ~dst:t.believed_primary (Types.Request request);
      arm_retry t p

let next_op t ctx =
  match t.queue with
  | Some make_op when t.remaining > 0 ->
      t.remaining <- t.remaining - 1;
      let op = make_op t.issued in
      t.issued <- t.issued + 1;
      submit t ctx ~op
  | _ -> ()

let complete t ctx (p : pending) value =
  if not p.done_ then begin
    p.done_ <- true;
    t.completed <- t.completed + 1;
    t.current <- None;
    t.on_complete ~timestamp:p.timestamp
      ~latency:(Engine.ctx_now ctx - p.sent_at)
      ~value;
    next_op t ctx
  end

let note_view t view = t.believed_primary <- view mod num_replicas t

let query t ctx ~key ~callback =
  t.next_qid <- t.next_qid + 1;
  let qid = t.next_qid in
  let pending = { q_key = key; q_done = false; q_callback = callback } in
  Hashtbl.replace t.queries qid pending;
  (* Read from a single replica, chosen round-robin; retry another on
     timeout, give up after one cycle. *)
  let n = num_replicas t in
  let rec attempt tries =
    if not pending.q_done then begin
      if tries >= n then begin
        pending.q_done <- true;
        Hashtbl.remove t.queries qid;
        callback None
      end
      else begin
        let replica = (qid + tries) mod n in
        send t ctx ~dst:replica (Types.Query { client = t.id; qid; query = key });
        ignore
          (Engine.set_timer t.env.Replica.engine ~node:t.id
             ~after:(Config.client_retry_timeout / 4)
             (fun ctx -> if not pending.q_done then attempt_ctx ctx (tries + 1)))
      end
    end
  and attempt_ctx _ctx tries = attempt tries in
  attempt 0

let on_message t ctx ~src msg =
  match msg with
  | Types.Execute_ack { view; seq; index; timestamp; value; state_digest; pi; proof; _ } -> (
      note_view t view;
      match t.current with
      | Some p when Int.equal p.timestamp timestamp && not p.done_ ->
          if
            Priced.verify_execute_ack ctx t.env.Replica.keys ~seq ~index ~op:p.op ~value
              ~digest:state_digest ~pi ~proof
          then complete t ctx p value
      | _ -> ())
  | Types.Reply { view; replica; timestamp; value; _ } -> (
      note_view t view;
      match t.current with
      | Some p when Int.equal p.timestamp timestamp && not p.done_ ->
          Priced.verify_reply ctx;
          if not (List.mem_assoc replica p.replies) then begin
            p.replies <- (replica, value) :: p.replies;
            (* Track the responsive primary for future requests. *)
            ignore src;
            let matching =
              List.length (List.filter (fun (_, v) -> String.equal v value) p.replies)
            in
            if matching >= (config t).Config.f + 1 then complete t ctx p value
          end
      | _ -> ())
  | Types.Query_resp { qid; seq; digest; pi; value; proof; _ } -> (
      match Hashtbl.find_opt t.queries qid with
      | Some q when not q.q_done ->
          if
            Priced.verify_query_resp ctx t.env.Replica.keys ~seq ~key:q.q_key ~value ~digest
              ~pi ~proof
          then begin
            q.q_done <- true;
            Hashtbl.remove t.queries qid;
            q.q_callback (Some (value, seq))
          end
      | _ -> ())
  | _ -> ()

let run_closed_loop t ~num_requests ~make_op ~start_at =
  t.queue <- Some make_op;
  t.remaining <- num_requests;
  Engine.dispatch t.env.Replica.engine ~dst:t.id ~at:start_at (fun ctx -> next_op t ctx)
