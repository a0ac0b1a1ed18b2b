(** Structured event tracing.

    Protocol code emits trace records (time, node, kind, detail); tests
    and the Figure-1 reproduction assert on the recorded flow.  Tracing
    is off by default and costs one branch per call when disabled: the
    detail is a thunk, formatted only when tracing is on. *)

type record = {
  time : Engine.time;
  node : int;
  kind : string;  (** e.g. ["send:pre-prepare"], ["commit"], ["view-change"] *)
  detail : string;
}

type t

val create : ?enabled:bool -> unit -> t

val emit :
  t -> time:Engine.time -> node:int -> kind:string -> detail:(unit -> string) -> unit

val records : t -> record list
(** In emission order. *)

val pp_record : Format.formatter -> record -> unit
