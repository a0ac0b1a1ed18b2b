(** Repo-specific static analysis over the OCaml AST (compiler-libs).

    The pass parses each [.ml] file under the trees it is given
    ([sbft_lint] defaults to [lib/], [bin/], [bench/], [test/],
    [examples/] and [perfbench/]) and checks protocol-hygiene rules that
    the type system does not enforce; each rule below names its own
    scope:

    - {b R1} — no polymorphic [=] / [<>] / [compare] / [Hashtbl.hash] in
      protocol code ([lib/core], [lib/pbft], [lib/crypto]).  Comparisons
      where one operand is a constant (integer/char literal, [None],
      [true], a nullary constructor, ...) are tag-only and exempt;
      everything else must use an explicit equality ([Int.equal],
      [String.equal], a derived equality on the message type, ...).
    - {b R2} — no partial stdlib functions ([List.hd], [List.nth],
      [List.assoc], [Option.get], [Hashtbl.find]) in protocol code;
      use the [_opt] variants or restructure the match.
    - {b R3} — no catch-all [try ... with _ ->] handlers, anywhere.
    - {b R4} — no quorum-literal arithmetic ([3 * f], [2 * c], ...)
      outside [lib/core/config.ml]: quorum sizes must flow from
      {!module:Config} so the [n = 3f + 2c + 1] relations live in one
      place.
    - {b R5} — every module under [lib/] must have a [.mli].
    - {b R6} — authenticate-before-use (a per-function taint dataflow
      over [lib/core] and [lib/pbft]): parameters of network-receive
      handlers (top-level functions named [on_*]) are tainted, taint is
      cleared only by a call into the sanitizer set
      (Crypto/Keys/Pki verify functions), and a tainted value reaching a
      state-mutating call (table writes, [:=], field assignment,
      [send_*]/[broadcast_*] emission, [check_*]) is an error carrying
      the taint chain.  The source, sanitizer and sink names are
      constants of this module.
    - {b R7} — determinism: no [Random.*] outside [lib/sim/rng.ml], no
      [Unix.*] or [Sys.time] anywhere under [lib/], no physical equality
      ([==] / [!=]) on protocol values, and no unordered [Hashtbl.iter]
      / [Hashtbl.fold] / [Hashtbl.to_seq*] traversal under [lib/] —
      unless the fold feeds directly into [List.sort] (any of
      [sort cmp (fold ...)], [fold ... |> sort cmp], [sort cmp @@ fold
      ...]) or the file is [lib/sim/det.ml], the blessed sorted-view
      wrapper.

    (R8, the replay-divergence checker, is the runtime twin of R7 and
    lives in [lib/sim/replay.ml], not here.  R9-R15 are
    {!Discipline}'s.  R16, no export without a user, is a cross-unit
    pass over the compiled typed trees in {!Exports}.)

    This module also owns what every analysis pass shares: the finding
    type and its order, path scoping, source-file reading and parsing,
    and the Longident/structure helpers.  {!Discipline.check_file} is
    the one per-file entry that runs every rule.

    Findings carry [file:line] locations; every kept finding is an
    error.  Vetted exceptions live in a [lint.allow] file at the repo
    root. *)

type finding = {
  rule : string;  (** "R1" .. "R16", or "parse" for unparseable input *)
  file : string;  (** root-relative path, forward slashes *)
  line : int;
  message : string;
}

val pp_finding : finding -> string
(** ["file:line: [rule] message"] — one line, no trailing newline. *)

val sort_findings : finding list -> finding list
(** Stable sort by line, then rule: the order every report uses. *)

val dedup : finding list -> finding list
(** Sort by line, rule and message, dropping exact repeats (a site
    reached through several inlined paths is reported once). *)

(** {2 Shared helpers} *)

val normalize : string -> string
(** Root-relative form of a path: a leading ["./"] stripped and
    backslashes turned into forward slashes.  Every rule scopes on
    normalized paths. *)

val handler_scope : string -> bool
(** [lib/core/] and [lib/pbft/]: the scope of R6 and R9-R15 (R15 also
    runs on [lib/crypto/cost_model.ml]). *)

val contains_sub : string -> string -> bool
(** [contains_sub s sub]: does [sub] occur in [s]? *)

val last_component : Longident.t -> string
(** The final name of a long identifier ([A.B.f] -> ["f"]). *)

val structure_bindings : Parsetree.structure -> Parsetree.value_binding list
(** Every top-level [let] binding, in source order. *)

val read_file : string -> string

val ml_files : string list -> string list
(** Every [.ml] file under the given paths, normalized and sorted.
    Hidden and [_]-prefixed entries and [lint_fixtures] directories are
    skipped. *)

val mli_files : string list -> string list
(** The same walk for [.mli] files: R16's exports. *)

val parse : path:string -> string -> (Parsetree.structure, finding) result
(** Parse source text attributed to [path]; a syntax or lexer error is
    a single ["parse"] finding. *)

val implicit_params : string list
(** R6's parameter and binding names exempt from tainting: the handler's
    own state and scalar routing fields covered by the link-layer MAC
    checked on receipt.  R11 exempts them too. *)

val lint_structure : path:string -> Parsetree.structure -> finding list
(** Run R1-R4, R6 and R7 over a parsed file attributed to the
    normalized [path], keeping the rules whose scope includes it.
    Findings are sorted by line, then rule. *)

val missing_mli : path:string -> mli_exists:bool -> finding option
(** R5: [Some finding] when [path] is a [lib/] module without a
    matching interface file. *)

(** Vetted exceptions.  One entry per line:

    {v
    <rule> <path>[:<line>]   # justification
    v}

    A [*] rule matches every rule; an entry without [:<line>] matches
    the whole file.  Blank lines and [#]-only lines are ignored. *)
module Allow : sig
  type t

  val empty : t

  val parse : string -> t
  (** Parse the contents of a [lint.allow] file.  Malformed lines are
      ignored (they simply allow nothing). *)

  val unused : t -> finding list -> string list
  (** Entries (rendered back to ["rule path[:line]"]) that matched none
      of [findings] — stale allowlist lines worth cleaning up. *)
end

val filter : Allow.t -> finding list -> finding list * finding list
(** [filter allow findings] is [(kept, allowed)]. *)

val exit_code : finding list -> int
(** 1 when any finding is kept, 0 otherwise. *)
