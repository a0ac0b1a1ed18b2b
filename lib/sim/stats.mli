(** Measurement accumulators used by the benchmark harness.

    {!Latency} collects individual samples (request latencies) and
    reports mean/median/percentiles.  {!Throughput} counts completions
    stamped with virtual time and reports a rate over a measurement
    window, excluding warm-up. *)

module Latency : sig
  type t

  val create : unit -> t
  val add : t -> Engine.time -> unit
  val mean_ms : t -> float
  val percentile_ms : t -> float -> float
  (** [percentile_ms t 0.5] is the median, in milliseconds. 0 samples
      yield [nan]. *)

  val median_ms : t -> float
end

module Throughput : sig
  type t

  val create : unit -> t

  val add : t -> at:Engine.time -> int -> unit
  (** [add t ~at k] records [k] completed operations at time [at]. *)

  val total : t -> int

  val last_at : t -> Engine.time option
  (** Virtual time of the most recent completion, if any — the
      effective end of a finite-request run that drains before its
      horizon. *)

  val rate : t -> from_:Engine.time -> until:Engine.time -> float
  (** Operations per second of virtual time inside the window. *)
end
