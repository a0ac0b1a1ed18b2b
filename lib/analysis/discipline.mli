(** Protocol-discipline (R9-R11) and quorum-soundness (R12-R15) rules
    over {!Msgflow} summaries, and {!check_file}, the one per-file entry
    that runs every lint rule.

    - {b R9} — WAL-before-send: every send of a promise-bearing message
      must be preceded, on its source path through local helper calls,
      by a [wal_log] of the matching record type and the [wal_sync]
      that flushed it.  The record<->message correspondence is the
      [promise_table] of [discipline.ml].  Only files that use the WAL
      are checked (the PBFT baseline has no WAL by design).
    - {b R10} — charge by construction: a file that defines an [on_*]
      handler calls no priced crypto/storage primitive and no
      [Engine.charge] (it goes through [Priced]), and in [priced.ml]
      every function that calls a primitive contains an [Engine.charge].
    - {b R11} — send-amplification: inside a handler, a send in an
      iteration over a handler-parameter collection, or an unguarded
      send of an amplifying message (full state transfers, new-view
      certificates), must be gated on recognizable pacing state (a
      guard mentioning allow/rate/resent/paced/served, or an
      [Hashtbl.mem] dedup).
    - {b R12} — symbolic quorum soundness: every threshold definition
      and comparison is extracted as a linear form over (f, c) with
      [n = 3f + 2c + 1], and the shared {!Quorum_props.obligations}
      (intersection, ordering, liveness) are discharged by exact
      enumeration over the admissible grid plus a finite-difference
      monotonicity check that extends the verdict to all admissible
      (f, c); hand-adjusted comparisons must carry a checked
      [[@quorum.adjust k]] annotation, and every declared
      [Config.mutation] must provably violate an obligation.
    - {b R13} — every raw [set_timer] arm site guards its callback with
      an assigned cancel flag (or routes through a guarded local
      [set_replica_timer] wrapper).
    - {b R14} — in files that use the runtime sanitizer, every
      threshold-crossing decision pairs with a
      [Sanitizer.check_quorum] of the matching kind in the same
      function.
    - {b R15} — no wildcard cases in the wire-size/kind tables of
      msg-defining files or in the [Cost_model] price tables.

    Scope: [lib/core/] and [lib/pbft/] ({!Lint.handler_scope}).
    Findings use {!Lint.finding} so they share the allowlist, report,
    and exit-code machinery. *)

(** Threshold definitions extracted from a [Config]-like file: the
    real linear form per quorum kind, plus each declared mutation
    constructor's weakened form. *)
type defs

val default_defs : defs
(** The canonical formulas from {!Quorum_props} — used when the
    tree's [config.ml] is not among the linted files. *)

val config_defs : (Parsetree.structure, Lint.finding) result -> defs
(** The definitions of a parsed [lib/core/config.ml], or
    {!default_defs} when it does not parse or defines none. *)

val check_file :
  defs:defs ->
  path:string ->
  mli_exists:bool ->
  (Parsetree.structure, Lint.finding) result ->
  Lint.finding list
(** Every rule over one file, parsed once by {!Lint.parse} and
    attributed to [path] (normalized here): R5 from [mli_exists], the
    parse finding or R1-R7, and, in scope, R9-R15 from one {!Msgflow}
    summary.  Files that define thresholds get the definitional R12
    checks; other in-scope files get the comparison-site, timer and
    sanitizer-coverage rules, resolved against [defs].  Findings are
    sorted by line, then rule. *)

val obligation_report : defs -> string
(** The deterministic R12 obligation report CI uploads: symbolic
    definitions, per-obligation PASS/FAIL with witness points, and the
    obligation each declared mutation violates. *)

(** {2 Test hooks} *)

val extract_defs : path:string -> Parsetree.structure -> defs option
(** [None] when the structure defines no threshold functions (an
    ordinary protocol file). *)

val lint_defs : defs -> Lint.finding list
(** The definitional half of R12 alone (exposed for unit tests). *)
