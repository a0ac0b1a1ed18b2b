(** The quorum property list shared between the runtime sanitizer and
    the static quorum-soundness analyzer (R12), so the two can't drift
    apart.  All formulas follow the paper's §4: n = 3f + 2c + 1,
    sigma = 3f + c + 1, tau = 2f + c + 1, pi = f + 1,
    vc = 2f + 2c + 1, majority = 2f + 1. *)

type kind = Sigma | Tau | Pi | Vc | Majority

val kind_name : kind -> string

(** Canonical linear form [base + fk*f + ck*c] of a threshold. *)
type linear = { base : int; fk : int; ck : int }

val canonical : kind -> linear
val n_linear : linear
val eval : linear -> f:int -> c:int -> int
val pp_linear : linear -> string

(** Concrete threshold values at one (f, c) point.  Build with
    [derive] for the canonical formulas, or directly from extracted
    symbolic expressions (the analyzer does) to test a candidate
    threshold assignment against the obligations. *)
type thresholds = {
  f : int;
  c : int;
  n : int;
  sigma : int;
  tau : int;
  pi : int;
  vc : int;
  majority : int;
}

val derive : f:int -> c:int -> thresholds
val threshold_of : thresholds -> kind -> int

(** A named proof obligation.  [applies] gates it (the majority
    obligations are c = 0 only); it holds at a point when every margin
    is [>= 0].  Margins are affine in (f, c) whenever the thresholds
    are linear forms (equalities contribute one margin per direction),
    which is what lets the analyzer extend grid enumeration to all
    admissible (f, c) via finite differences. *)
type obligation = {
  name : string;
  law : string;
  applies : thresholds -> bool;
  margins : thresholds -> int list;
}

val obligations : obligation list
val holds : obligation -> thresholds -> bool

(** Obligations that apply but do not hold at the given point. *)
val failures : thresholds -> obligation list

(** All admissible (f, c) — f, c >= 0 and n = 3f + 2c + 1 >= 4
    (Config.validate's floor) — with both components <= 8, in
    lexicographic order. *)
val grid : unit -> (int * int) list
