(** Client-request intake, one implementation for both replica stacks
    (SBFT's {!Replica} and the PBFT baseline): the exactly-once client
    table, the primary's pending queue and the rule that cuts it into
    blocks, the requests awaiting execution and the progress clock that
    starts a view change.  None of it is one of SBFT's ingredients, so
    both stacks share this code: Intake decides when the primary
    proposes a block and how big it is, and each stack orders the block
    its own way.  Every message and timer a request causes is the
    replica's: {!on_request} and {!cut_blocks} take them as callbacks. *)

type row = Sbft_store.Block_store.client_entry

type t

val create : Config.t -> t

(** {2 Client table} *)

val find_row : t -> client:int -> row option
(** The row of [client]'s last executed request. *)

val executed_before : t -> client:int -> timestamp:int -> bool
(** The exactly-once test: the table already records [client]'s request
    [timestamp], or a later one, as executed. *)

val exec_ops : t -> Types.request list -> string list
(** The operations a committed block executes: a request re-proposed
    across a view change may appear in two blocks, and its second
    occurrence degrades to the no-op [""] (every replica shares the
    same table state, so deterministically). *)

val record_rows :
  t -> seq:int -> Types.request list -> string list -> fresh:(row -> unit) -> unit
(** Record the first execution of each client request of block [seq]
    with its output; [ce_index] is the request's position in the block.
    Each new row is also passed to [fresh], in block order. *)

val add_row : t -> row -> unit

val adopt_rows : t -> row list -> unit
(** Replace the table with a checkpoint's rows. *)

val rows : t -> row list
(** The table, sorted by client id. *)

(** {2 Block cutting (primary)} *)

val cut_blocks :
  t ->
  Sbft_sim.Engine.ctx ->
  inflight:(unit -> int) ->
  room:(unit -> bool) ->
  propose:(Sbft_sim.Engine.ctx -> Types.request list -> unit) ->
  arm:((Sbft_sim.Engine.ctx -> unit) -> unit) ->
  unit
(** The adaptive batching rule (§V-C, §VIII).  The batch size is the
    decaying average (factor 1/8 per queued arrival) of the pending
    queue's length over half the in-flight budget, clamped to between 1
    and {!Config.max_batch}; the budget is the paper's active window,
    at most 8 blocks.  There is room for a block while requests are
    pending, the stack's [room] holds (primary, view and window guards)
    and fewer than the budget's blocks are [inflight].  While there is
    room and a full batch is pending, [propose] gets the oldest
    batch-size requests.  Then, with room left, the rule arms at most
    one partial-batch flush: [arm] schedules it (the replica's guarded
    {!Config.batch_timeout} timer), and when it fires it proposes up to
    one batch if there is room and runs the rule again.  The armed flag
    clears when the flush fires, before its room check. *)

(** {2 Requests awaiting execution} *)

val mark_outstanding : t -> Types.request -> unit
(** Watch a client request until it executes (null requests are
    ignored). *)

val clear_outstanding : t -> Types.request -> unit

val redrive : t -> primary:bool -> forward:(Types.request -> unit) -> unit
(** After entering a view: the primary queues every outstanding request
    not already pending; a backup [forward]s each to the new primary.
    Both go in (client, timestamp) order, which is replay-visible. *)

(** {2 Progress clock} *)

val note_progress : t -> Sbft_sim.Engine.ctx -> unit

val enter_view : t -> Sbft_sim.Engine.ctx -> unit
(** Progress, and the view-change backoff starts over. *)

val liveness_due : t -> Sbft_sim.Engine.ctx -> bool
(** True when requests are waiting and nothing has progressed for
    {!Config.view_change_timeout} times [2^b], where [b] (capped at 6)
    counts the view changes this clock started since the last
    {!enter_view}; a [true] answer increments [b].

    The outage bound after a primary crash.  A request is "waiting" only
    at a replica that has seen it, and a backup sees a request only when
    the client broadcasts its retry, {!Config.client_retry_timeout} (4 s)
    after the first send to the primary.  So a backup starts the view
    change within [client_retry_timeout + view_change_timeout * 2^b] of
    the request, plus one liveness tick (both stacks poll this every
    [view_change_timeout / 2]); the outage is that plus the view-change
    exchange itself.  Both replicas follow this rule (it is PBFT's own),
    and a liveness oracle takes its bound from here. *)

(** {2 Request entry} *)

val on_request :
  t ->
  Sbft_sim.Engine.ctx ->
  Keys.t ->
  Types.request ->
  primary:bool ->
  reply:(row -> unit) ->
  queued:(unit -> unit) ->
  forward:(unit -> unit) ->
  unit
(** A client request arrives.  An executed one is answered from the
    table ([reply]).  The primary authenticates a new one
    ({!Priced.verify_requests}), queues it and calls [queued]; a backup watches
    it and [forward]s it to the primary, once. *)

(** {2 Test hooks} *)

val pending_length : t -> int

val take : t -> int -> Types.request list
(** Pop up to [n] requests, oldest first. *)

val batch_size : t -> int
(** The current adaptive batch size. *)
