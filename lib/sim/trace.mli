(** Structured event tracing.

    Protocol code emits trace records (time, node, kind, detail); tests
    and the Figure-1 reproduction assert on the recorded flow.  Tracing
    is off by default and costs one branch per call when disabled. *)

type record = {
  time : Engine.time;
  node : int;
  kind : string;  (** e.g. ["send:pre-prepare"], ["commit"], ["view-change"] *)
  detail : string;
}

type t

val create : ?enabled:bool -> unit -> t
val set_enabled : t -> bool -> unit

val emit : t -> time:Engine.time -> node:int -> kind:string -> detail:string -> unit

val records : t -> record list
(** In emission order. *)

val find_all : t -> kind:string -> record list

val pp_record : Format.formatter -> record -> unit
