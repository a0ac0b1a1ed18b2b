(** Message transport over a {!Topology}: latency + jitter, per-node NIC
    bandwidth (serialization delay for large messages and broadcast
    fan-out), probabilistic drops, link/partition failures, and a hook
    for adversarial per-link delays.

    The network does not know about message {i types}; protocol layers
    pass a closure to run at the destination together with the message's
    wire size.  A per-message receive overhead (kernel + TLS record
    processing) is charged on the destination CPU before the handler
    runs. *)

type t

val create : topology:Topology.t -> unit -> t
(** No drops, no partition, every link up.  The per-message prices are
    the constants below: 10 Gbit/s NICs, 80 bytes of framing (TCP/IP +
    TLS record) and 30 µs of receive overhead per message. *)

val recv_overhead : Engine.time
(** 30 µs of destination CPU per message (kernel TCP + TLS record
    processing of a 2018 software stack — the cost that makes quadratic
    message complexity hurt at n ≈ 200), charged before the handler
    runs. *)

val send_overhead : Engine.time
(** 20 µs of sender CPU per message (syscall + TLS record).  The
    network does not charge it itself: each cluster's send path does,
    on the sending node's CPU. *)

(** [send t eng ~src ~dst ~size ~at f] transmits a [size]-byte message,
    departing node [src] at time [at] (its NIC may delay departure),
    and runs [f] on [dst]'s CPU at arrival.  Messages between a node and
    itself are delivered after a minimal loopback delay. *)
val send :
  t -> Engine.t -> src:int -> dst:int -> size:int -> at:Engine.time ->
  (Engine.ctx -> unit) -> unit

(** {2 Fault injection} *)

val set_partition : t -> groups:int array option -> unit
(** [set_partition t ~groups:(Some g)] drops every message between nodes
    in different groups ([g.(node)] is the node's group); [None] heals. *)

val set_link : t -> src:int -> dst:int -> up:bool -> unit
(** Take a directed link down (messages silently dropped) or back up. *)

val set_extra_delay : t -> src:int -> dst:int -> Engine.time -> unit
(** Adversarial fixed extra delay on a directed link (0 clears it). *)

val set_flap : t -> src:int -> dst:int -> period:Engine.time -> up:Engine.time -> unit
(** Gray failure: make a directed link flap.  The link passes traffic
    only during the first [up] ns of each [period] (phase anchored at
    virtual time 0) — messages departing in the off-window are silently
    dropped.  Connectivity is a pure function of departure time, so
    flapping is deterministic and replayable (no RNG draws).
    [period <= 0] or [up >= period] clears the flap.  Directed: flap
    only one direction for an asymmetric gray link. *)

val clear_flap_node : t -> node:int -> unit
(** Clear flapping on every link touching [node] (both directions) —
    the heal counterpart of {!set_flap} for GST schedules. *)

val set_drop_prob : t -> float -> unit

val isolate_node : t -> node:int -> unit
(** Take down every link to and from [node] (the node stays alive: its
    timers run, but nothing it sends leaves and nothing reaches it).
    Used by the schedule fuzzer to isolate a specific collector. *)

val reconnect_node : t -> node:int -> unit
(** Undo {!isolate_node} (restores every link touching [node], including
    any taken down individually via {!set_link}). *)

(** {2 Accounting} *)

val messages_sent : t -> int
val bytes_sent : t -> int
val messages_dropped : t -> int
val reset_counters : t -> unit
