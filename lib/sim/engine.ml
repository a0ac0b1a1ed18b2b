type time = int

let ns x = x
let us x = x * 1_000
let ms x = x * 1_000_000
let ms_f x = int_of_float (x *. 1_000_000.)
let sec x = x * 1_000_000_000
let sec_f x = int_of_float (x *. 1_000_000_000.)

let to_ms t = float_of_int t /. 1_000_000.
let to_sec t = float_of_int t /. 1_000_000_000.

type node = {
  id : int;
  mutable cpu_free_at : time;
  mutable crashed : bool;
  mutable cpu_scale : float;
  pending : pending_work Queue.t;
  held : pending_work Queue.t; (* timers that came due while crashed *)
  mutable drain_at : time; (* time of the scheduled drain event, or -1 *)
}

(* CPU-queue items: a message's work, or a timer's callback.  A crash
   drops the first and holds the second (see [crash]). *)
and pending_work = Work of (ctx_ -> unit) | Tick of (ctx_ -> unit)

and ctx_ = { eng : t_; cnode : node; mutable cpu_now : time }

(* Events are a variant, not a closure: the common cases (message
   arrival, timer firing) carry their target directly, so scheduling a
   dispatch allocates one small block instead of a closure capturing
   the engine, and cancelled timers can be recognized in the queue
   (see [maybe_purge]). *)
and event =
  | Thunk of (unit -> unit)
  | Arrive of node * (ctx_ -> unit)
  | Timer_ev of timer * node * (ctx_ -> unit)

and timer = { mutable cancelled : bool; mutable fired : bool; owner : t_ }

and t_ = {
  mutable now : time;
  mutable seq : int;
  events : event Wheel.t;
  nodes : node array;
  (* One reusable ctx per node: handlers never run nested (all
     cross-node work goes through scheduled events), so a single
     mutable record per node replaces a per-work-item allocation. *)
  mutable ctxs : ctx_ array;
  rng : Rng.t;
  mutable executed : int;
  (* live = queued and not cancelled; cancelled entries linger until
     popped or purged *)
  mutable cancelled_pending : int;
  (* profile counters *)
  mutable n_thunks : int;
  mutable n_arrivals : int;
  mutable n_timers_fired : int;
  mutable n_timers_skipped : int;
  mutable n_timers_purged : int;
  mutable max_pending : int;
}

type t = t_
type ctx = ctx_

type profile = {
  p_executed : int;
  p_thunks : int;
  p_arrivals : int;
  p_timers_fired : int;
  p_timers_skipped : int;
  p_timers_purged : int;
  p_max_pending : int;
}

let create ~num_nodes ~seed () =
  let t =
    {
      now = 0;
      seq = 0;
      events = Wheel.create ~dummy:(Thunk ignore);
      nodes =
        Array.init num_nodes (fun id ->
            {
              id;
              cpu_free_at = 0;
              crashed = false;
              cpu_scale = 1.0;
              pending = Queue.create ();
              held = Queue.create ();
              drain_at = -1;
            });
      ctxs = [||];
      rng = Rng.create seed;
      executed = 0;
      cancelled_pending = 0;
      n_thunks = 0;
      n_arrivals = 0;
      n_timers_fired = 0;
      n_timers_skipped = 0;
      n_timers_purged = 0;
      max_pending = 0;
    }
  in
  t.ctxs <- Array.map (fun nd -> { eng = t; cnode = nd; cpu_now = 0 }) t.nodes;
  t

let num_nodes t = Array.length t.nodes
let now t = t.now
let rng t = t.rng

let node t i = t.nodes.(i)

let is_crashed t i = (node t i).crashed
let set_cpu_scale t i s = (node t i).cpu_scale <- s

let push_event t ~at ev =
  let at = if at < t.now then t.now else at in
  t.seq <- t.seq + 1;
  Wheel.push t.events ~key0:at ~key1:t.seq ev;
  let sz = Wheel.size t.events in
  if sz > t.max_pending then t.max_pending <- sz

let schedule t ~at f = push_event t ~at (Thunk f)

(* Per-node FIFO CPU queue: each arriving work item enqueues; a single
   "drain" event per node runs items back-to-back as the CPU frees up,
   so a busy CPU costs O(1) events per handler instead of a requeue
   storm.  A crashed node's queue is empty (see [crash]). *)
let rec drain t nd () =
  nd.drain_at <- -1;
  let c = t.ctxs.(nd.id) in
  while (not (Queue.is_empty nd.pending)) && nd.cpu_free_at <= t.now do
    let (Work f | Tick f) = Queue.pop nd.pending in
    c.cpu_now <- (if nd.cpu_free_at > t.now then nd.cpu_free_at else t.now);
    f c;
    if c.cpu_now > nd.cpu_free_at then nd.cpu_free_at <- c.cpu_now
  done;
  if not (Queue.is_empty nd.pending) then begin
    nd.drain_at <- nd.cpu_free_at;
    schedule t ~at:nd.cpu_free_at (drain t nd)
  end

let hold nd = function Tick _ as w -> Queue.push w nd.held | Work _ -> ()

let arrive t nd w =
  if not nd.crashed then begin
    Queue.push w nd.pending;
    if nd.drain_at < 0 then begin
      let at = if nd.cpu_free_at > t.now then nd.cpu_free_at else t.now in
      nd.drain_at <- at;
      if at <= t.now then drain t nd () else schedule t ~at (drain t nd)
    end
  end
  else hold nd w

(* A plain crash pauses the process: queued messages are lost, but every
   timer callback, queued or coming due while down, is held and runs in
   (time, seq) order at recovery on a CPU free from that instant. *)
let crash t i =
  let nd = node t i in
  if not nd.crashed then begin
    nd.crashed <- true;
    Queue.iter (hold nd) nd.pending;
    Queue.clear nd.pending
  end

let recover t i =
  let nd = node t i in
  if nd.crashed then begin
    nd.crashed <- false;
    nd.cpu_free_at <- t.now;
    Queue.transfer nd.held nd.pending;
    drain t nd ()
  end

let dispatch t ~dst ~at f = push_event t ~at (Arrive (node t dst, f))

let set_timer t ~node:i ~after f =
  let tm = { cancelled = false; fired = false; owner = t } in
  push_event t ~at:(t.now + after) (Timer_ev (tm, node t i, f));
  tm

(* Lazy purge: cancelled timers stay queued until popped, which under a
   retry/backoff cancel storm lets dead events dominate the queue.  Once
   they outnumber live events (and are numerous enough that a sweep is
   worth its O(size) cost) we compact.  Purging is count-triggered and
   therefore deterministic; dropping a cancelled timer early is
   observationally silent — it would have fired as a skip, emitting no
   trace record and charging no CPU. *)
let maybe_purge t =
  if t.cancelled_pending > 64 && t.cancelled_pending * 2 > Wheel.size t.events
  then begin
    Wheel.compact t.events ~dead:(function
      | Timer_ev (tm, _, _) -> tm.cancelled
      | _ -> false);
    t.n_timers_purged <- t.n_timers_purged + t.cancelled_pending;
    t.cancelled_pending <- 0
  end

let cancel_timer tm =
  if not (tm.cancelled || tm.fired) then begin
    tm.cancelled <- true;
    let t = tm.owner in
    t.cancelled_pending <- t.cancelled_pending + 1;
    maybe_purge t
  end

let self c = c.cnode.id
let ctx_now c = c.cpu_now

let charge c dt =
  let scaled =
    if c.cnode.cpu_scale = 1.0 then dt
    else int_of_float (float_of_int dt *. c.cnode.cpu_scale)
  in
  c.cpu_now <- c.cpu_now + scaled

let engine c = c.eng

(* Run one popped event.  Returns [true] if it counted as executed
   ([false] for a cancelled timer, which is skipped without touching
   the clock's event budget — it would have been a no-op drain). *)
let fire t at ev =
  match ev with
  | Timer_ev (tm, _, _) when tm.cancelled ->
      t.cancelled_pending <- t.cancelled_pending - 1;
      t.n_timers_skipped <- t.n_timers_skipped + 1;
      false
  | _ ->
      t.now <- (if at > t.now then at else t.now);
      t.executed <- t.executed + 1;
      (match ev with
      | Thunk f ->
          t.n_thunks <- t.n_thunks + 1;
          f ()
      | Arrive (nd, f) ->
          t.n_arrivals <- t.n_arrivals + 1;
          arrive t nd (Work f)
      | Timer_ev (tm, nd, f) ->
          tm.fired <- true;
          t.n_timers_fired <- t.n_timers_fired + 1;
          arrive t nd (Tick f));
      true

(* Both loops pop through [min_key0] then [pop]: no option or tuple is
   built per event. *)
let run_until t deadline =
  let q = t.events in
  while Wheel.size q > 0 && Wheel.min_key0 q <= deadline do
    let at = Wheel.min_key0 q in
    ignore (fire t at (Wheel.pop q) : bool)
  done;
  if deadline > t.now then t.now <- deadline

let run_all ?(max_events = max_int) t =
  let q = t.events in
  let budget = ref max_events in
  while !budget > 0 && Wheel.size q > 0 do
    let at = Wheel.min_key0 q in
    if fire t at (Wheel.pop q) then decr budget
  done

let events_executed t = t.executed

(* Live events only: cancelled-but-unpurged timers are dead weight, not
   pending work. *)
let pending_events t = Wheel.size t.events - t.cancelled_pending

let profile t =
  {
    p_executed = t.executed;
    p_thunks = t.n_thunks;
    p_arrivals = t.n_arrivals;
    p_timers_fired = t.n_timers_fired;
    p_timers_skipped = t.n_timers_skipped;
    p_timers_purged = t.n_timers_purged;
    p_max_pending = t.max_pending;
  }
