(** Interprocedural per-function summaries of protocol sources, and the
    [@msgflow] graph artifact rendered from them.

    Each top-level function of a file is summarized as a linear,
    source-ordered stream of protocol events (WAL log/sync, send,
    charge, priced crypto call, local call), tagged with syntactic
    context: a nesting region path, whether the event sits inside a
    guard condition, the identifiers of enclosing iteration
    collections, and the identifiers of enclosing guard conditions.
    The {!Discipline} rules (R9-R15) consume these summaries; {!render} turns
    them into the deterministic message-flow artifact diffed against
    [analysis/msgflow.expected]. *)

(** The threshold side of a quorum comparison: a call to a
    threshold-looking function ([*_threshold], [quorum*]) with any
    trailing [+ k] / [- k] folded into [adjust], or inline linear
    arithmetic over the config's [f] / [c]. *)
type tside =
  | T_call of { callee : string; adjust : int }
  | T_linear of Quorum_props.linear

type event =
  | Log of string  (** [wal_log _ _ (Ctor ...)]: the record constructor *)
  | Sync  (** [wal_sync _ _] *)
  | Send of { ctor : string option; bcast : bool }
      (** call to [send] or [broadcast*]; [ctor] is the outermost
          message constructor among the arguments when visible *)
  | Charge of { labels : string list; consts : string list }
      (** [Engine.charge]: Tally label strings and [Cost_model.*]
          constant names appearing in the arguments *)
  | Crypto of { klass : string; callee : string }
      (** call to a priced crypto/storage primitive; [klass] groups
          primitives priced together by the cost model *)
  | Call of string  (** call to another top-level function of the file *)
  | Threshold_cmp of { op : string; thresh : tside; annot : int option }
      (** comparison of a count against a quorum threshold, normalized
          to read [count op thresh]; [annot] is a [[@quorum.adjust k]]
          attribute value ([Some min_int] when malformed) *)
  | San_check of string
      (** [Sanitizer.check_quorum _ Kind ~count:_]: the kind
          constructor name, or ["<unknown>"] *)
  | Timer_arm of { callee : string; cb_guards : string list }
      (** a [set_timer] / [set_replica_timer] arm site; [cb_guards]
          are identifier and field names in guard conditions inside
          the callback lambdas *)

type einfo = {
  ev : event;
  line : int;
  region : int list;
      (** nesting path: region [a] encloses region [b] iff [a] is a
          prefix of [b] *)
  in_guard : bool;
  iter_vars : string list;
  guard_names : string list;
}

type func = {
  fn_name : string;
  fn_line : int;
  fn_params : string list;
  fn_events : einfo list;  (** in source order *)
}

type file = {
  path : string;
  funcs : func list;
  handled : string list;
      (** constructor names matched by the file's [on_message] *)
}

type section = {
  sec_name : string;
  sec_universe : string list;
  sec_files : file list;
}

val linear_of_expr : Parsetree.expression -> Quorum_props.linear option
(** Symbolic linear form of an expression over the parameters [f] and
    [c] (bare identifiers or record fields); [None] when the
    expression is not linear in that vocabulary.  The quorum analyzer
    uses this on [Config]'s threshold definitions. *)

val tside_of_expr : Parsetree.expression -> tside option

val summarize : path:string -> Parsetree.structure -> file

val variant_constructors : type_name:string -> Parsetree.structure -> string list
(** Constructors of every variant type named [type_name] in the
    structure, in declaration order. *)

val find_func : func list -> string -> func option


val is_handler : string -> bool
(** Does the function name start with [on_]? *)

val render : section list -> string
(** The deterministic [@msgflow] artifact. *)
