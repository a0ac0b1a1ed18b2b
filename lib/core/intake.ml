open Sbft_sim

type row = Sbft_store.Block_store.client_entry

type t = {
  table : (int, row) Hashtbl.t; (* client -> row of its last executed op *)
  pending : Types.request Queue.t;
  pending_keys : (int * int, unit) Hashtbl.t;
  budget : int; (* blocks the primary keeps in flight *)
  mutable avg_pending : float; (* decaying average of the queue length *)
  mutable flush_armed : bool; (* a partial-batch flush is pending *)
  outstanding : (int * int, Types.request) Hashtbl.t; (* awaiting execution *)
  mutable last_progress : Engine.time;
  mutable vc_backoff : int;
}

let create config =
  {
    table = Hashtbl.create 64;
    pending = Queue.create ();
    pending_keys = Hashtbl.create 64;
    (* The paper sets the batch divisor to half the maximum number of
       concurrent blocks; that number evaluated to 4 in their
       experiments, i.e. at most 8 blocks pipeline concurrently. *)
    budget = max 1 (min (Config.active_window config) 8);
    avg_pending = 0.0;
    flush_armed = false;
    outstanding = Hashtbl.create 64;
    last_progress = 0;
    vc_backoff = 0;
  }

let key (r : Types.request) = (r.client, r.timestamp)

(* ------------------------------------------------------------------ *)
(* Client table *)

let find_row t ~client = Hashtbl.find_opt t.table client

let executed_before t ~client ~timestamp =
  match Hashtbl.find_opt t.table client with
  | Some ce -> ce.Sbft_store.Block_store.ce_timestamp >= timestamp
  | None -> false

let exec_ops t reqs =
  List.map
    (fun (r : Types.request) ->
      if r.client >= 0 && executed_before t ~client:r.client ~timestamp:r.timestamp
      then ""
      else r.op)
    reqs

let add_row t (ce : row) = Hashtbl.replace t.table ce.ce_client ce

let record_rows t ~seq reqs outputs ~fresh =
  let rec go index reqs outputs =
    match (reqs, outputs) with
    | (r : Types.request) :: reqs, value :: outputs ->
        if r.client >= 0 && not (executed_before t ~client:r.client ~timestamp:r.timestamp)
        then begin
          let row =
            {
              Sbft_store.Block_store.ce_client = r.client;
              ce_timestamp = r.timestamp;
              ce_value = value;
              ce_seq = seq;
              ce_index = index;
            }
          in
          add_row t row;
          fresh row
        end;
        go (index + 1) reqs outputs
    | _ -> ()
  in
  go 0 reqs outputs

let adopt_rows t rows =
  Hashtbl.reset t.table;
  List.iter (add_row t) rows

let rows t = List.map snd (Det.sorted_bindings ~compare:Int.compare t.table)

(* ------------------------------------------------------------------ *)
(* Pending queue *)

let pending_length t = Queue.length t.pending

let enqueue t r =
  Hashtbl.replace t.pending_keys (key r) ();
  Queue.push r t.pending

let take t n =
  let reqs = List.init (min n (Queue.length t.pending)) (fun _ -> Queue.pop t.pending) in
  List.iter (fun r -> Hashtbl.remove t.pending_keys (key r)) reqs;
  reqs

(* Adaptive batching (§V-C, §VIII): the decaying average of the queue
   length over half the in-flight budget, clamped to [1, max_batch]. *)
let batch_size t =
  let b = int_of_float (t.avg_pending /. float_of_int (max 1 (t.budget / 2))) in
  max 1 (min Config.max_batch b)

let observe_pending t =
  (* Exponentially decaying average with factor 1/8 per arrival. *)
  t.avg_pending <-
    (0.875 *. t.avg_pending) +. (0.125 *. float_of_int (Queue.length t.pending))

(* ------------------------------------------------------------------ *)
(* Block cutting (primary) *)

let cut_blocks t ctx ~inflight ~room ~propose ~arm =
  let has_room () = (not (Queue.is_empty t.pending)) && room () && inflight () < t.budget in
  let rec run ctx =
    let size = batch_size t in
    while Queue.length t.pending >= size && has_room () do
      propose ctx (take t size)
    done;
    if (not t.flush_armed) && has_room () then begin
      t.flush_armed <- true;
      arm (fun ctx ->
          (* Cleared before the room check: a flush that finds no room
             must leave the next cut free to arm another. *)
          t.flush_armed <- false;
          if has_room () then propose ctx (take t (batch_size t));
          run ctx)
    end
  in
  run ctx

(* ------------------------------------------------------------------ *)
(* Requests awaiting execution *)

let mark_outstanding t (r : Types.request) =
  if r.client >= 0 then Hashtbl.replace t.outstanding (key r) r

let clear_outstanding t r = Hashtbl.remove t.outstanding (key r)

let redrive t ~primary ~forward =
  Det.iter_sorted ~compare:(Det.compare_pair Int.compare Int.compare)
    (fun k r ->
      if not primary then forward r
      else if not (Hashtbl.mem t.pending_keys k) then enqueue t r)
    t.outstanding

(* ------------------------------------------------------------------ *)
(* Progress clock: the view-change trigger *)

let note_progress t ctx = t.last_progress <- Engine.ctx_now ctx

let enter_view t ctx =
  t.vc_backoff <- 0;
  note_progress t ctx

let liveness_due t ctx =
  let waiting = Hashtbl.length t.outstanding > 0 || not (Queue.is_empty t.pending) in
  let timeout = Config.view_change_timeout * (1 lsl min 6 t.vc_backoff) in
  if waiting && Engine.ctx_now ctx - t.last_progress > timeout then begin
    t.vc_backoff <- t.vc_backoff + 1;
    true
  end
  else false

(* ------------------------------------------------------------------ *)
(* Request entry *)

let on_request t ctx keys (r : Types.request) ~primary ~reply ~queued ~forward =
  match find_row t ~client:r.client with
  | Some ce when ce.Sbft_store.Block_store.ce_timestamp >= r.timestamp -> reply ce
  | _ ->
      if primary then begin
        if not (Hashtbl.mem t.pending_keys (key r)) then begin
          (* Static authentication and access-control check (§V-C). *)
          if Priced.verify_requests ctx keys [ r ] then begin
            enqueue t r;
            observe_pending t;
            mark_outstanding t r;
            queued ()
          end
        end
      end
      else if not (Hashtbl.mem t.outstanding (key r)) then begin
        mark_outstanding t r;
        forward ()
      end
