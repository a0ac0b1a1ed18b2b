open Sbft_core

type verdict = { name : string; pass : bool; detail : string }

type ctx = {
  cluster : Cluster.t;
  sched : Schedule.t;
  completions : (int * string) list array;
      (* per client index, (timestamp, accepted value), completion order *)
  ever_byzantine : int list;
  sanitizer_violation : string option;
}

(* ------------------------------------------------------------------ *)
(* Pure observation layer.

   Every oracle is a function of [obs] only — a plain record snapshot
   of everything the checks inspect.  [observe] extracts it from the
   live cluster; tests hand-build counterexample snapshots directly, so
   an oracle weakened by refactoring fails a synthetic trace loudly
   instead of silently accepting whatever the simulator produces. *)

type replica_obs = {
  rid : int;
  last_executed : int;
  digest : string;  (* state digest at [last_executed] *)
  blocks : (int * Types.request list) list;
      (* committed blocks by sequence number *)
  certified : (int * string) list;  (* π-certified checkpoint digests *)
  counters : int array;  (* per client index: service counter cell *)
  executed_for : int array;
      (* per client index: distinct requests executed (client table) *)
}

type obs = {
  num_replicas : int;
  num_clients : int;
  replicas : replica_obs list;  (* honest replicas only *)
  submitted : int array;  (* per client: highest timestamp submitted *)
  completed_ops : int array;  (* per client: operations completed *)
  accepted : (int * string) list array;
      (* per client: (timestamp, accepted value) in completion order *)
  requests : int;  (* closed-loop requests per client *)
  gst_ms : int option;
  sanitizer_violation : string option;
}

let is_byz ctx id = List.exists (Int.equal id) ctx.ever_byzantine

let honest_replicas ctx =
  Array.to_list ctx.cluster.Cluster.replicas
  |> List.filter (fun r -> not (is_byz ctx (Replica.id r)))

let expected_op client_index =
  Sbft_store.Kv_service.add ~key:("ctr:" ^ string_of_int client_index) ~delta:1

let counter_key client_index = "ctr:" ^ string_of_int client_index

let observe ctx =
  let n = Cluster.num_replicas ctx.cluster in
  let clients = ctx.cluster.Cluster.clients in
  let honest = honest_replicas ctx in
  let max_h = List.fold_left (fun acc r -> max acc (Replica.last_executed r)) 0 honest in
  let replicas =
    List.map
      (fun r ->
        let blocks = ref [] in
        for seq = max_h downto 1 do
          match Replica.committed_block r seq with
          | None -> ()
          | Some reqs -> blocks := (seq, reqs) :: !blocks
        done;
        let state = Sbft_store.Auth_store.state (Replica.store r) in
        {
          rid = Replica.id r;
          last_executed = Replica.last_executed r;
          digest = Replica.state_digest r;
          blocks = !blocks;
          certified = Replica.certified_checkpoints r;
          counters =
            Array.mapi
              (fun idx _ ->
                match Sbft_store.Kv_service.read state ~key:(counter_key idx) with
                | Some v -> Option.value ~default:(-1) (int_of_string_opt v)
                | None -> 0)
              clients;
          executed_for =
            Array.mapi
              (fun idx _ ->
                Option.value ~default:0 (Replica.client_last_timestamp r ~client:(n + idx)))
              clients;
        })
      honest
  in
  {
    num_replicas = n;
    num_clients = Array.length clients;
    replicas;
    submitted = Array.map Client.last_timestamp clients;
    completed_ops = Array.map Client.completed clients;
    accepted = ctx.completions;
    requests = ctx.sched.Schedule.requests;
    gst_ms = ctx.sched.Schedule.gst_ms;
    sanitizer_violation = ctx.sanitizer_violation;
  }

(* ------------------------------------------------------------------ *)
(* Individual oracles.  Each returns (pass, detail). *)

(* Theorem VI.1: no two non-faulty replicas commit different blocks at
   the same sequence number; and replicas at equal executed heights have
   equal state digests. *)
let agreement obs =
  let max_h = List.fold_left (fun acc r -> max acc r.last_executed) 0 obs.replicas in
  match
    Cluster.agreement
      ~id:(fun r -> r.rid)
      ~last_executed:(fun r -> r.last_executed)
      ~committed_block:(fun r seq -> List.assoc_opt seq r.blocks)
      ~state_digest:(fun r -> r.digest)
      (Array.of_list obs.replicas)
  with
  | None -> (true, Printf.sprintf "heights<=%d consistent" max_h)
  | Some d -> (false, d)

(* Every executed operation traces back to a client request (or is the
   view change's null filler). *)
let validity obs =
  let bad = ref [] in
  List.iter
    (fun r ->
      List.iter
        (fun (seq, block) ->
          if seq >= 1 && seq <= r.last_executed then
            List.iter
              (fun { Types.client; timestamp; op; _ } ->
                if client < 0 then begin
                  if not (String.equal op "") then
                    bad := Printf.sprintf "replica %d seq %d: non-null op without client" r.rid seq :: !bad
                end
                else begin
                  let idx = client - obs.num_replicas in
                  if idx < 0 || idx >= obs.num_clients then
                    bad := Printf.sprintf "replica %d seq %d: unknown client %d" r.rid seq client :: !bad
                  else begin
                    let submitted = obs.submitted.(idx) in
                    if timestamp < 1 || timestamp > submitted then
                      bad :=
                        Printf.sprintf "replica %d seq %d: client %d never submitted timestamp %d"
                          r.rid seq client timestamp
                        :: !bad
                    else if not (String.equal op (expected_op idx)) then
                      bad :=
                        Printf.sprintf "replica %d seq %d: op bytes differ from client %d's submission"
                          r.rid seq client
                        :: !bad
                  end
                end)
              block)
        r.blocks)
    obs.replicas;
  match List.rev !bad with
  | [] -> (true, "all executed ops trace to client requests")
  | d :: _ -> (false, d)

(* π-certified checkpoint digests agree across non-faulty replicas. *)
let checkpoints obs =
  let bad = ref [] in
  List.iter
    (fun ri ->
      List.iter
        (fun rj ->
          if ri.rid < rj.rid then
            List.iter
              (fun (seq, di) ->
                List.iter
                  (fun (seq', dj) ->
                    if Int.equal seq seq' && not (String.equal di dj) then
                      bad :=
                        Printf.sprintf "checkpoint digest mismatch at seq %d between replicas %d/%d"
                          seq ri.rid rj.rid
                        :: !bad)
                  rj.certified)
              ri.certified)
        obs.replicas)
    obs.replicas;
  match List.rev !bad with
  | [] -> (true, "certified checkpoint digests consistent")
  | d :: _ -> (false, d)

(* At-most-once execution of retried requests: every client's counter
   equals the number of distinct requests executed for it (server side),
   and the value each client accepted for its k-th request is exactly
   the k-th counter reading (client side). *)
let at_most_once obs =
  let bad = ref [] in
  List.iter
    (fun r ->
      if r.last_executed > 0 then
        Array.iteri
          (fun idx counter ->
            let executed = r.executed_for.(idx) in
            if not (Int.equal counter executed) then
              bad :=
                Printf.sprintf
                  "replica %d: client %d counter=%d but %d distinct requests executed"
                  r.rid (obs.num_replicas + idx) counter executed
                :: !bad)
          r.counters)
    obs.replicas;
  Array.iteri
    (fun idx accepted ->
      List.iter
        (fun (timestamp, value) ->
          if not (String.equal value (string_of_int timestamp)) then
            bad :=
              Printf.sprintf "client %d accepted value %S for request %d (expected %d)"
                idx value timestamp timestamp
              :: !bad)
        accepted)
    obs.accepted;
  match List.rev !bad with
  | [] -> (true, "counters match distinct executions")
  | d :: _ -> (false, d)

(* Liveness after GST: an eventually-synchronous schedule guarantees a
   heal + quiet period, so every submitted operation must complete
   within the horizon. *)
let liveness obs =
  match obs.gst_ms with
  | None -> (true, "not an eventually-synchronous schedule (skipped)")
  | Some gst ->
      let lagging =
        Array.to_list obs.completed_ops
        |> List.mapi (fun idx done_ -> (idx, done_))
        |> List.filter (fun (_, done_) -> done_ < obs.requests)
      in
      (match lagging with
      | [] -> (true, Printf.sprintf "all %d ops done after gst=%dms" (obs.requests * obs.num_clients) gst)
      | (idx, done_) :: _ ->
          (false, Printf.sprintf "client %d completed %d/%d after gst=%dms" idx done_ obs.requests gst))

let sanitizer obs =
  match obs.sanitizer_violation with
  | None -> (true, "no runtime invariant violation")
  | Some msg -> (false, msg)

let evaluate_obs obs =
  let mk name (pass, detail) = { name; pass; detail } in
  [
    mk "sanitizer" (sanitizer obs);
    mk "agreement" (agreement obs);
    mk "validity" (validity obs);
    mk "checkpoints" (checkpoints obs);
    mk "at-most-once" (at_most_once obs);
    mk "liveness" (liveness obs);
  ]

let evaluate ctx = evaluate_obs (observe ctx)
