open Sbft_sim
module Types = Sbft_core.Types
module Config = Sbft_core.Config
module Keys = Sbft_core.Keys
module Batching = Sbft_core.Batching
module Intake = Sbft_core.Intake
module Votes = Sbft_core.Votes
module Priced = Sbft_core.Priced

type env = {
  engine : Engine.t;
  trace : Trace.t;
  keys : Keys.t;
  send : Engine.ctx -> src:int -> dst:int -> Pbft_types.msg -> unit;
  exec_cost : Pbft_types.request list -> Engine.time;
}

type slot = {
  seq : int;
  mutable pp : (int * Types.request list * string) option;
  prepares : Votes.t;
  commits : Votes.t;
  mutable sent_prepare : bool;
  mutable sent_commit : bool;
  mutable prepared : bool;
  mutable committed : Types.request list option;
  mutable executed : bool;
  mutable ahead : (int * Types.request list) option;
      (* a verified pre-prepare from the primary of a view this replica
         has not entered yet: replayed when that view's New_view lands *)
}

let new_slot seq =
  {
    seq;
    pp = None;
    prepares = Votes.create ();
    commits = Votes.create ();
    sent_prepare = false;
    sent_commit = false;
    prepared = false;
    committed = None;
    executed = false;
    ahead = None;
  }

type t = {
  env : env;
  id : int;
  san : Sanitizer.t;
  store : Sbft_store.Auth_store.t;
  mutable view : int;
  mutable next_seq : int;
  mutable ls : int;
  slots : (int, slot) Hashtbl.t;
  intake : Intake.t;
  checkpoints : (int, Votes.t) Hashtbl.t; (* seq -> voters *)
  mutable batch_timer_armed : bool;
  mutable sent_vc_for : int;
  vc_msgs : (int, (int, (int * int * Types.request list) list) Hashtbl.t) Hashtbl.t;
  mutable n_view_changes : int;
  mutable retired : bool;
}

let cfg t = t.env.keys.Keys.config
let n_replicas t = Config.n (cfg t)
let quorum t = Config.quorum_bft (cfg t)

let create ~env ~id ~store =
  let config = env.keys.Keys.config in
  let san =
    Sanitizer.create ~enabled:(Config.sanitized config) ~f:config.Config.f
      ~c:config.Config.c ()
  in
  Sanitizer.check_config san ~n:(Config.n config);
  {
    env;
    id;
    san;
    store;
    view = 0;
    next_seq = 1;
    ls = 0;
    slots = Hashtbl.create 128;
    intake = Intake.create config;
    checkpoints = Hashtbl.create 8;
    batch_timer_armed = false;
    sent_vc_for = 0;
    vc_msgs = Hashtbl.create 4;
    n_view_changes = 0;
    retired = false;
  }

let id t = t.id
let view t = t.view
let primary_of t v = v mod n_replicas t
let is_primary t = Int.equal (primary_of t t.view) t.id
let last_executed t = Sbft_store.Auth_store.last_executed t.store
let state_digest t = Sbft_store.Auth_store.digest t.store
let view_changes_completed t = t.n_view_changes
let checkpoint_vote_sets t = Hashtbl.length t.checkpoints

let committed_block t seq =
  match Hashtbl.find_opt t.slots seq with Some s -> s.committed | None -> None

let slot t seq =
  match Hashtbl.find_opt t.slots seq with
  | Some s -> s
  | None ->
      let s = new_slot seq in
      Hashtbl.replace t.slots seq s;
      s

let send t ctx ~dst msg = t.env.send ctx ~src:t.id ~dst msg

(* Every replica timer goes through this wrapper so that retiring the
   object (cluster teardown / crash) silences callbacks still in
   flight — the batch timer and the self-rescheduling liveness timer
   would otherwise tick on as zombies. *)
let set_replica_timer t ~after f =
  Engine.set_timer t.env.engine ~node:t.id ~after (fun ctx ->
      if not t.retired then f ctx)

let retire t = t.retired <- true

(* All-to-all broadcast with one RSA signature by the sender; every
   receiver pays one verification (charged on receipt). *)
let broadcast t ctx msg =
  Priced.rsa_sign ctx;
  for r = 0 to n_replicas t - 1 do
    send t ctx ~dst:r msg
  done

let remove_upto tbl seq =
  List.iter (Hashtbl.remove tbl)
    (List.filter (fun s -> s <= seq) (Det.sorted_keys ~compare:Int.compare tbl))

(* [detail] is formatted only when tracing is on. *)
let trace t ctx kind detail =
  Trace.emit t.env.trace ~time:(Engine.ctx_now ctx) ~node:t.id ~kind ~detail

let rec on_message t ctx ~src msg =
  (* Replica-to-replica messages carry the sender's signature. *)
  (match msg with
  | Pbft_types.Request _ | Pbft_types.Reply _ -> ()
  | _ -> Priced.rsa_verify ctx);
  match msg with
  | Pbft_types.Request r -> on_request t ctx r
  | Pbft_types.Pre_prepare { seq; view; reqs } -> on_pre_prepare t ctx ~src ~seq ~view ~reqs
  | Pbft_types.Prepare { seq; view; h; replica } -> on_prepare t ctx ~seq ~view ~h ~replica
  | Pbft_types.Commit { seq; view; h; replica } -> on_commit t ctx ~seq ~view ~h ~replica
  | Pbft_types.Checkpoint { seq; digest; replica } -> on_checkpoint t ctx ~seq ~digest ~replica
  | Pbft_types.View_change { view; ls; prepared; replica } ->
      on_view_change t ctx ~view ~ls ~prepared ~replica
  | Pbft_types.New_view { view; pre_prepares } -> on_new_view t ctx ~view ~pre_prepares
  | Pbft_types.Reply _ -> ()

and on_request t ctx (r : Types.request) =
  Intake.on_request t.intake ctx t.env.keys r ~primary:(is_primary t)
    ~reply:(fun (ce : Intake.row) ->
      Priced.rsa_sign ctx;
      send t ctx ~dst:r.Types.client
        (Pbft_types.Reply
           {
             view = t.view;
             replica = t.id;
             client = r.Types.client;
             timestamp = ce.ce_timestamp;
             seq = ce.ce_seq;
             value = ce.ce_value;
           }))
    ~queued:(fun () -> try_propose t ctx)
    ~forward:(fun () -> send t ctx ~dst:(primary_of t t.view) (Pbft_types.Request r))

and inflight t =
  let le = last_executed t in
  let count = ref 0 in
  for s = le + 1 to t.next_seq - 1 do
    match Hashtbl.find_opt t.slots s with
    | Some sl when sl.committed <> None -> ()
    | _ -> incr count
  done;
  !count

and try_propose t ctx =
  if is_primary t then begin
    let config = cfg t in
    let target = Intake.batch_size t.intake in
    let can () =
      Intake.pending_length t.intake > 0
      && t.next_seq <= t.ls + config.Config.win
      && inflight t < Batching.max_concurrent config
    in
    while can () && Intake.pending_length t.intake >= target do
      propose t ctx target
    done;
    if can () && not t.batch_timer_armed then begin
      t.batch_timer_armed <- true;
      ignore
        (set_replica_timer t ~after:Config.batch_timeout
           (fun ctx ->
             t.batch_timer_armed <- false;
             if is_primary t && Intake.pending_length t.intake > 0
                && t.next_seq <= t.ls + config.Config.win
                && inflight t < Batching.max_concurrent config
             then begin
               propose t ctx (Intake.pending_length t.intake);
               try_propose t ctx
             end))
    end
  end

and propose t ctx batch =
  let batch = min batch (min (Intake.pending_length t.intake) Config.max_batch) in
  if batch > 0 then begin
    let reqs = Intake.take t.intake batch in
    let seq = t.next_seq in
    t.next_seq <- seq + 1;
    Priced.hash ctx (Types.requests_bytes reqs);
    trace t ctx "send:pre-prepare" (fun () -> Printf.sprintf "seq=%d batch=%d" seq batch);
    broadcast t ctx (Pbft_types.Pre_prepare { seq; view = t.view; reqs })
  end

(* A pre-prepare for a later view can overtake that view's New_view.
   It is verified and kept (one per in-window slot, only from the later
   view's primary, a higher view replacing a lower one) until
   [on_new_view] installs the view, since PBFT never retransmits it. *)
and on_pre_prepare t ctx ~src ~seq ~view ~reqs =
  let config = cfg t in
  let sl = slot t seq in
  let ahead =
    view > t.view
    && Int.equal src (primary_of t view)
    && match sl.ahead with Some (v, _) -> view > v | None -> true
  in
  if
    ((Int.equal view t.view && sl.pp = None) || ahead)
    && seq > t.ls
    && seq <= t.ls + config.Config.win
  then begin
    let real = List.filter (fun (r : Types.request) -> r.Types.client >= 0) reqs in
    if Priced.verify_requests ctx t.env.keys real then begin
      if ahead then sl.ahead <- Some (view, reqs) else accept_pre_prepare t ctx sl ~view ~reqs
    end
  end

and accept_pre_prepare t ctx sl ~view ~reqs =
  Priced.hash ctx (Types.requests_bytes reqs);
  let h = Pbft_types.block_hash t.env.keys ~seq:sl.seq ~view ~reqs in
  sl.pp <- Some (view, reqs, h);
  List.iter
    (fun (r : Types.request) -> if r.Types.client >= 0 then Intake.mark_outstanding t.intake r)
    reqs;
  if not sl.sent_prepare then begin
    sl.sent_prepare <- true;
    broadcast t ctx (Pbft_types.Prepare { seq = sl.seq; view; h; replica = t.id })
  end;
  check_prepared t ctx sl

and check_prepared t ctx sl =
  match sl.pp with
  | Some (view, _, _) when Int.equal view t.view ->
      if
        (not sl.prepared)
        && ((Votes.count sl.prepares >= quorum t - 1) [@quorum.adjust 1])
        (* pre-prepare counts as one vote: the [- 1] is declared and
           checked by R12, and the sanitizer count below re-adds it *)
      then begin
        Sanitizer.check_quorum t.san Sanitizer.Majority
          ~count:(Votes.count sl.prepares + 1);
        sl.prepared <- true;
        if not sl.sent_commit then begin
          sl.sent_commit <- true;
          match sl.pp with
          | Some (_, _, h) ->
              broadcast t ctx (Pbft_types.Commit { seq = sl.seq; view; h; replica = t.id })
          | None -> ()
        end
      end;
      check_committed t ctx sl
  | _ -> ()

and on_prepare t ctx ~seq ~view ~h ~replica =
  if Int.equal view t.view && seq > t.ls && seq <= t.ls + (cfg t).Config.win then begin
    let sl = slot t seq in
    let matches = match sl.pp with Some (_, _, h') -> String.equal h h' | None -> true in
    if matches && not (Votes.mem sl.prepares replica) then begin
      Votes.add sl.prepares replica;
      check_prepared t ctx sl
    end
  end

and on_commit t ctx ~seq ~view ~h ~replica =
  if Int.equal view t.view && seq > t.ls && seq <= t.ls + (cfg t).Config.win then begin
    let sl = slot t seq in
    let matches = match sl.pp with Some (_, _, h') -> String.equal h h' | None -> true in
    if matches && not (Votes.mem sl.commits replica) then begin
      Votes.add sl.commits replica;
      check_committed t ctx sl
    end
  end

and check_committed t ctx sl =
  match sl.pp with
  | Some (view, reqs, digest)
    when sl.committed = None && sl.prepared && Votes.count sl.commits >= quorum t ->
      Sanitizer.check_quorum t.san Sanitizer.Majority
        ~count:(Votes.count sl.commits);
      Sanitizer.record_commit t.san ~seq:sl.seq ~view ~digest;
      sl.committed <- Some reqs;
      Intake.note_progress t.intake ctx;
      Priced.persist ctx (Types.requests_bytes reqs);
      trace t ctx "commit" (fun () -> Printf.sprintf "seq=%d" sl.seq);
      try_execute t ctx;
      if is_primary t then try_propose t ctx
  | _ -> ()

and try_execute t ctx =
  let config = cfg t in
  let continue = ref true in
  while !continue do
    let next = last_executed t + 1 in
    match Hashtbl.find_opt t.slots next with
    | Some ({ committed = Some reqs; executed = false; _ } as sl) ->
        Sanitizer.record_execute t.san ~seq:next;
        sl.executed <- true;
        let outputs =
          Priced.execute ctx t.store ~exec_cost:t.env.exec_cost ~seq:next reqs
            ~ops:(Intake.exec_ops t.intake reqs)
        in
        Intake.note_progress t.intake ctx;
        Intake.record_rows t.intake ~seq:next reqs outputs ~fresh:ignore;
        List.iter
          (fun ((r : Types.request), value) ->
            Intake.clear_outstanding t.intake r;
            if r.Types.client >= 0 then begin
              Priced.rsa_sign ctx;
              send t ctx ~dst:r.Types.client
                (Pbft_types.Reply
                   {
                     view = t.view;
                     replica = t.id;
                     client = r.Types.client;
                     timestamp = r.Types.timestamp;
                     seq = next;
                     value;
                   })
            end)
          (List.combine reqs outputs);
        (* Periodic checkpoint: all-to-all digest votes (the quadratic
           protocol SBFT's ingredient 3 replaces). *)
        if next mod Config.checkpoint_interval config = 0 then begin
          Priced.hash ctx 64;
          broadcast t ctx
            (Pbft_types.Checkpoint
               { seq = next; digest = state_digest t; replica = t.id })
        end
    | _ -> continue := false
  done;
  if is_primary t then try_propose t ctx

and on_checkpoint t ctx ~seq ~digest ~replica =
  ignore digest;
  (* A vote at or below the stable checkpoint can decide nothing. *)
  if seq > t.ls then begin
    let voters =
      match Hashtbl.find_opt t.checkpoints seq with
      | Some v -> v
      | None ->
          let v = Votes.create () in
          Hashtbl.replace t.checkpoints seq v;
          v
    in
    if not (Votes.mem voters replica) then begin
      Votes.add voters replica;
      if Votes.count voters >= quorum t then begin
        Sanitizer.check_quorum t.san Sanitizer.Majority
          ~count:(Votes.count voters);
        t.ls <- seq;
        Intake.note_progress t.intake ctx;
        (* GC everything at or below the stable checkpoint. *)
        remove_upto t.slots seq;
        remove_upto t.checkpoints seq;
        Sanitizer.prune_below t.san ~seq;
        Sbft_store.Auth_store.gc_below t.store ~seq;
        Keys.clear_at_checkpoint t.env.keys ~seq
      end
    end
  end

(* --------------------------- view change --------------------------- *)

and start_view_change t ctx ~target_view =
  if target_view > t.sent_vc_for then begin
    t.sent_vc_for <- target_view;
    trace t ctx "view-change" (fun () -> Printf.sprintf "to=%d" target_view);
    (* Certificate list in ascending seq order: the VC message payload
       is replay-visible, so its layout must not depend on Hashtbl
       iteration order. *)
    let prepared =
      List.filter_map
        (fun (seq, sl) ->
          if sl.prepared && seq > t.ls then
            match sl.pp with Some (v, reqs, _) -> Some (seq, v, reqs) | None -> None
          else None)
        (Det.sorted_bindings ~compare:Int.compare t.slots)
    in
    broadcast t ctx
      (Pbft_types.View_change { view = target_view - 1; ls = t.ls; prepared; replica = t.id })
  end

and on_view_change t ctx ~view ~ls ~prepared ~replica =
  ignore ls;
  let target = view + 1 in
  if target > t.view then begin
    let tbl =
      match Hashtbl.find_opt t.vc_msgs target with
      | Some tbl -> tbl
      | None ->
          let tbl = Hashtbl.create 8 in
          Hashtbl.replace t.vc_msgs target tbl;
          tbl
    in
    if not (Hashtbl.mem tbl replica) then begin
      Hashtbl.replace tbl replica prepared;
      if Hashtbl.length tbl >= Config.pi_threshold (cfg t) && t.sent_vc_for < target
      then begin
        Sanitizer.check_quorum t.san Sanitizer.Pi ~count:(Hashtbl.length tbl);
        start_view_change t ctx ~target_view:target
      end;
      if Int.equal (primary_of t target) t.id && Hashtbl.length tbl >= quorum t then begin
        Sanitizer.check_quorum t.san Sanitizer.Majority
          ~count:(Hashtbl.length tbl);
        (* Re-propose the highest-view prepared block per slot. *)
        (* Visit senders in replica-id order: equal-view ties keep the
           first certificate seen, so the winner must not depend on
           Hashtbl iteration order. *)
        let best : (int, int * Types.request list) Hashtbl.t = Hashtbl.create 16 in
        Det.iter_sorted ~compare:Int.compare
          (fun _ certs ->
            List.iter
              (fun (seq, v, reqs) ->
                match Hashtbl.find_opt best seq with
                | Some (v', _) when v' >= v -> ()
                | _ -> Hashtbl.replace best seq (v, reqs))
              certs)
          tbl;
        let pre_prepares =
          Hashtbl.fold (fun seq (_, reqs) acc -> (seq, reqs) :: acc) best []
          |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
        in
        trace t ctx "send:new-view" (fun () -> Printf.sprintf "view=%d" target);
        broadcast t ctx (Pbft_types.New_view { view = target; pre_prepares })
      end
    end
  end

and on_new_view t ctx ~view ~pre_prepares =
  if view > t.view then begin
    Sanitizer.record_view_entry t.san ~view;
    t.view <- view;
    t.n_view_changes <- t.n_view_changes + 1;
    Intake.enter_view t.intake ctx;
    (* Reset per-view state of open slots. *)
    Det.iter_sorted ~compare:Int.compare
      (fun _ sl ->
        if sl.committed = None then begin
          sl.pp <- None;
          Votes.reset sl.prepares;
          Votes.reset sl.commits;
          sl.sent_prepare <- false;
          sl.sent_commit <- false;
          sl.prepared <- false
        end)
      t.slots;
    let top = ref t.ls in
    List.iter
      (fun (seq, reqs) ->
        if seq > !top then top := seq;
        if seq > t.ls then on_pre_prepare t ctx ~src:(primary_of t view) ~seq ~view ~reqs)
      pre_prepares;
    (* Replay the pre-prepares of this view that overtook its New_view;
       those of older views are dead. *)
    List.iter
      (fun (_, sl) ->
        match sl.ahead with
        | Some (v, reqs) when v <= view ->
            sl.ahead <- None;
            if
              Int.equal v view && sl.pp = None && sl.seq > t.ls
              && sl.seq <= t.ls + (cfg t).Config.win
            then accept_pre_prepare t ctx sl ~view ~reqs
        | Some _ | None -> ())
      (Det.sorted_bindings ~compare:Int.compare t.slots);
    if is_primary t then t.next_seq <- max t.next_seq (!top + 1);
    (* Re-drive requests stranded by the old view. *)
    Intake.redrive t.intake ~primary:(is_primary t) ~forward:(fun r ->
        send t ctx ~dst:(primary_of t t.view) (Pbft_types.Request r));
    if is_primary t then try_propose t ctx
  end

and liveness_tick t ctx =
  if Intake.liveness_due t.intake ctx then
    start_view_change t ctx ~target_view:(max (t.view + 1) (t.sent_vc_for + 1))

let rec arm_liveness t =
  ignore
    (set_replica_timer t
       ~after:(Config.view_change_timeout / 2)
       (fun ctx ->
         liveness_tick t ctx;
         arm_liveness t))

let start t ctx =
  Intake.note_progress t.intake ctx;
  arm_liveness t
