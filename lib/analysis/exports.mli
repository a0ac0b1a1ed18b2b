(** {b R16} — no export without a user.

    Every [val] in a [lib/] interface must be referenced by some other
    compilation unit outside [test/]: another [lib/] module, or a unit
    under [bin/], [bench/], [examples/] or [perfbench/].  A value used
    only by tests must sit under a test-hook heading: a [{1 ...}] or
    [{2 ...}] doc heading whose title contains the word "test" or
    "tests" (for example [{2 Introspection for tests and benchmarks}]).
    The heading covers every value after it up to the next such
    heading, nested signatures included.

    Unlike R1-R15, which read the untyped AST of one file, R16 is a
    cross-unit pass over the typed trees dune already writes: the
    [.cmti] of each interface gives the exports, and the [.cmt] of each
    implementation the resolved paths it references.  So [Lib.Mod.v],
    [Lib__Mod.v] and [Config.v] after [module Config = Lib.Mod] are one
    key.  A module used as a whole (a functor argument, a first-class
    [(module M)], an [include]) counts as a use of every value in it. *)

type export = {
  path : string list;  (** unit name, enclosing submodules, value name *)
  file : string;  (** the root-relative [.mli] *)
  line : int;
  heading : string option;  (** title of the [{1}]/[{2}] heading above it *)
}

type use = {
  target : string list;  (** the referenced path before alias resolution *)
  whole : bool;  (** a module used as a whole: every value under it *)
  from : string;  (** the root-relative source file of the user *)
}

val check :
  build:string -> mlis:string list -> mls:string list -> (Lint.finding list, string list) result
(** [check ~build ~mlis ~mls] reads every [.cmt]/[.cmti] under
    [build]'s [lib], [bin], [bench], [examples], [perfbench] and [test]
    trees and runs {!findings} on the [lib/] interfaces [mlis].
    [Error stale] lists the files of [mlis] and [mls] (the linted
    implementations) that have no typed tree whose source digest
    matches the file: the rule cannot run while one is missing.  With
    no [mlis] there is nothing to check and nothing is read. *)

(** {2 Test hooks} *)

val findings :
  aliases:(string list * string list) list ->
  exports:export list ->
  uses:use list ->
  Lint.finding list
(** The decision, pure: an R16 finding for each export outside a
    test-hook heading whose users, after rewriting each use's target
    through [aliases] (prefix -> replacement), are only its own
    [.ml] and [test/] files, in the order of [exports]. *)
