(** Deterministic discrete-event simulation engine.

    The engine owns a virtual clock (nanoseconds), an event queue, and a
    registry of nodes.  Each node models a single-core machine: handlers
    for messages and timers run sequentially on the node's CPU, and a
    handler accounts for the CPU time it consumes by calling {!charge}.
    A handler that arrives while the CPU is busy waits for it, which is
    what makes signature-verification load a real throughput bottleneck
    in the benchmarks, exactly as on the paper's testbed.

    All randomness used by the engine (and by the network layered on top
    of it) comes from the seed passed to {!create}: two runs with equal
    seeds produce identical traces. *)

type time = int
(** Virtual time in nanoseconds since simulation start. *)

type t

type ctx
(** Execution context passed to every handler: identifies the running
    node and tracks the CPU time consumed so far by the handler. *)

type timer
(** Cancellable handle for a scheduled timer. *)

val us : int -> time
val ms : int -> time
val ms_f : float -> time
val sec : int -> time
val sec_f : float -> time

val to_ms : time -> float
val to_sec : time -> float

(** [create ~num_nodes ~seed ()] builds an engine with nodes
    [0 .. num_nodes-1], all alive, with idle CPUs. *)
val create : num_nodes:int -> seed:int64 -> unit -> t

(** [now t] is the current virtual time (time of the event being
    processed, or of the last processed event). *)
val now : t -> time

(** [rng t] is the engine's deterministic random stream. *)
val rng : t -> Rng.t

(** {2 Node lifecycle} *)

val crash : t -> int -> unit
(** [crash t node] pauses [node] until {!recover}: messages queued on its
    CPU or arriving while it is down are dropped, but timer callbacks,
    queued or coming due while it is down, are held.  A no-op on a
    crashed node. *)

val recover : t -> int -> unit
(** [recover t node] restarts a crashed [node] with an idle CPU and runs
    its held timer callbacks on it in the order they came due.  A no-op
    on a live node. *)

val is_crashed : t -> int -> bool

val set_cpu_scale : t -> int -> float -> unit
(** [set_cpu_scale t node s] makes [node]'s CPU run [s] times slower
    than nominal ([s > 1.] models a straggler). *)

(** {2 Scheduling} *)

val schedule : t -> at:time -> (unit -> unit) -> unit
(** [schedule t ~at f] runs [f] at virtual time [at] outside any node
    CPU (use for workload generators and observers, not protocol code). *)

val dispatch : t -> dst:int -> at:time -> (ctx -> unit) -> unit
(** [dispatch t ~dst ~at f] runs [f] on node [dst]'s CPU no earlier than
    [at]; if the CPU is busy at [at], [f] waits its turn.  Dropped if
    [dst] is crashed when it would start. *)

val set_timer : t -> node:int -> after:time -> (ctx -> unit) -> timer
(** [set_timer t ~node ~after f] arranges for [f] to run on [node]'s CPU
    [after] nanoseconds from now unless cancelled; if [node] is crashed
    then, [f] runs at its {!recover}. *)

val cancel_timer : timer -> unit
(** Cancelled timers are skipped when they come due; when cancelled
    entries outnumber live ones the queue is compacted eagerly, so a
    cancel storm cannot grow {!pending_events} (see the engine's
    [maybe_purge]). *)

(** {2 Handler context} *)

val ctx_now : ctx -> time
(** [ctx_now c] is the handler's local clock: the event's start time
    plus all CPU time charged so far. Sends from a handler depart at
    the local clock. *)

val charge : ctx -> time -> unit
(** [charge c dt] accounts [dt] nanoseconds of CPU work (scaled by the
    node's CPU scale). *)

(** {2 Running} *)

val run_until : t -> time -> unit
(** [run_until t deadline] processes events with firing time [<= deadline],
    then sets the clock to [deadline]. *)

val events_executed : t -> int

(** {2 Profiling}

    Cheap counters maintained on the event hot path, surfaced through
    the harness as per-phase event counts and events/sec. *)

type profile = {
  p_executed : int;  (** events popped and run *)
  p_thunks : int;  (** bare {!schedule} thunks (workload/observer code) *)
  p_arrivals : int;  (** message deliveries via {!dispatch} *)
  p_timers_fired : int;  (** timers that came due and ran *)
  p_timers_skipped : int;  (** cancelled timers skipped at pop *)
  p_timers_purged : int;  (** cancelled timers removed by compaction *)
  p_max_pending : int;  (** high-water mark of the event queue *)
}

val profile : t -> profile

(** {2 Test hooks} *)

val run_all : t -> unit
(** [run_all t] processes events until the queue drains. *)

val pending_events : t -> int
(** Live (non-cancelled) events still queued. *)
