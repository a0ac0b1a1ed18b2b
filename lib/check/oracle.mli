(** Property oracles evaluated over the final cluster state and the
    per-client completion log after a schedule runs to its horizon.

    The suite: runtime-sanitizer verdict, agreement (Theorem VI.1: no
    two honest replicas commit different blocks at the same sequence
    number; equal executed heights imply equal state digests), validity
    (every executed op traces to a known client's submission),
    checkpoint-digest consistency, at-most-once execution under client
    retries, and liveness after GST (only asserted on
    eventually-synchronous schedules).

    Replicas the schedule ever flips Byzantine are excluded from every
    oracle — state corrupted while Byzantine persists even after a
    post-GST flip back to honest.

    The oracles themselves are pure functions of an {!obs} snapshot:
    {!evaluate} takes one from a live cluster, and unit tests
    hand-build minimal counterexample snapshots that must trip each
    oracle — so a check weakened by refactoring fails a synthetic trace
    loudly instead of silently accepting simulator output. *)

type verdict = { name : string; pass : bool; detail : string }

type ctx = {
  cluster : Sbft_core.Cluster.t;
  sched : Schedule.t;
  completions : (int * string) list array;
      (** per client index, (timestamp, accepted value), in completion
          order *)
  ever_byzantine : int list;
  sanitizer_violation : string option;
}

(** Snapshot of one honest replica, as the oracles see it. *)
type replica_obs = {
  rid : int;
  last_executed : int;
  digest : string;  (** state digest at [last_executed] *)
  blocks : (int * Sbft_core.Types.request list) list;
      (** committed blocks by sequence number; the oracles read each
          request's client, timestamp and op, never its signature *)
  certified : (int * string) list;
      (** π-certified checkpoint (seq, digest) pairs *)
  counters : int array;  (** per client index: service counter cell *)
  executed_for : int array;
      (** per client index: distinct requests executed *)
}

(** Everything the six oracles inspect, as plain data. *)
type obs = {
  num_replicas : int;
  num_clients : int;
  replicas : replica_obs list;  (** honest replicas only *)
  submitted : int array;
      (** per client: highest timestamp ever submitted *)
  completed_ops : int array;  (** per client: operations completed *)
  accepted : (int * string) list array;
      (** per client: (timestamp, accepted value) in completion order *)
  requests : int;  (** closed-loop requests per client *)
  gst_ms : int option;
  sanitizer_violation : string option;
}

val expected_op : int -> string
(** [expected_op client_index] is the operation every client submits on
    every request: increment its own counter cell. The oracles rely on
    this shape — the counter value equals the number of distinct
    executions, and the reply value equals the request's timestamp. *)

val evaluate : ctx -> verdict list
(** Snapshot the final cluster state (honest replicas only) and run
    {!evaluate_obs} on it. *)

(** {2 Test hooks} *)

val evaluate_obs : obs -> verdict list
(** All six verdicts over a snapshot, in a fixed order (sanitizer,
    agreement, validity, checkpoints, at-most-once, liveness). Pure:
    unit tests drive it with hand-built counterexample traces. *)
