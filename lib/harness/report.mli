(** Table, CSV, and JSON rendering of benchmark points. *)

(** Minimal dependency-free JSON used by the benchmark regression
    reports ({!Regress}): a deterministic pretty-printing emitter and a
    parser that reads back what the emitter writes. *)
module Json : sig
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  val to_string : t -> string
  (** Pretty-printed (2-space indent, trailing newline), deterministic:
      field order is preserved, so committed baselines diff cleanly. *)

  val parse : string -> (t, string) result

  val member : string -> t -> t option
  val to_float : t -> float option
  val to_str : t -> string option
end

val print_throughput_table :
  title:string -> clients:int list -> rows:(string * Scenario.point list) list -> unit
(** One row per protocol, one column per client count; cells show
    ops/second. *)

val print_latency_table :
  title:string -> clients:int list -> rows:(string * Scenario.point list) list -> unit
(** Same layout; cells show "latency_ms @ throughput" pairs (the axes of
    the paper's Figure 3). *)

val print_points : title:string -> Scenario.point list -> unit
(** Generic long-format dump, one line per point. *)

val write_csv : path:string -> Scenario.point list -> unit

val json_of_profile : Sbft_sim.Engine.profile -> Json.t
(** Engine per-phase event counters as a JSON object — the shape the
    paper-scale profile artifact uploads from CI. *)

(** {2 Test hooks} *)

val csv_of_points : Scenario.point list -> string
