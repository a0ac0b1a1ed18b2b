(* The quorum property list shared between the runtime sanitizer
   (Sanitizer.check_config) and the static analyzer (R12 in
   lib/analysis/discipline.ml), so the two can't drift apart.

   SBFT's parameters (paper §4): n = 3f + 2c + 1 replicas tolerate f
   byzantine and c crashed/slow replicas.  The thresholds:

     sigma    = 3f + c + 1   fast-path commit quorum
     tau      = 2f + c + 1   slow-path (linear PBFT) quorum
     pi       = f + 1        execution-proof quorum
     vc       = 2f + 2c + 1  view-change quorum
     majority = 2f + 1       PBFT baseline quorum (c = 0 deployments)

   Each obligation below is a linear inequality over (f, c); the
   analyzer discharges them by exact enumeration over the admissible
   grid (see [grid]), the sanitizer evaluates them at the one concrete
   (f, c) a run uses. *)

type kind = Sigma | Tau | Pi | Vc | Majority

let kind_name = function
  | Sigma -> "sigma"
  | Tau -> "tau"
  | Pi -> "pi"
  | Vc -> "view-change"
  | Majority -> "majority"

(* Canonical linear form base + fk*f + ck*c of each threshold.  R12
   compares the expressions it extracts from lib/core/config.ml
   against these, so a silent edit to Config is caught even before the
   obligations are enumerated. *)
type linear = { base : int; fk : int; ck : int }

let canonical = function
  | Sigma -> { base = 1; fk = 3; ck = 1 }
  | Tau -> { base = 1; fk = 2; ck = 1 }
  | Pi -> { base = 1; fk = 1; ck = 0 }
  | Vc -> { base = 1; fk = 2; ck = 2 }
  | Majority -> { base = 1; fk = 2; ck = 0 }

let n_linear = { base = 1; fk = 3; ck = 2 }
let eval l ~f ~c = l.base + (l.fk * f) + (l.ck * c)

let pp_linear l =
  let term coeff var acc =
    if Int.equal coeff 0 then acc
    else
      let t =
        if Int.equal coeff 1 then var else Printf.sprintf "%d%s" coeff var
      in
      if String.equal acc "" then t else acc ^ " + " ^ t
  in
  let s = term l.fk "f" "" in
  let s = term l.ck "c" s in
  let s =
    if Int.equal l.base 0 then s
    else if String.equal s "" then string_of_int l.base
    else Printf.sprintf "%s + %d" s l.base
  in
  if String.equal s "" then "0" else s

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

let derive ~f ~c =
  {
    f;
    c;
    n = eval n_linear ~f ~c;
    sigma = eval (canonical Sigma) ~f ~c;
    tau = eval (canonical Tau) ~f ~c;
    pi = eval (canonical Pi) ~f ~c;
    vc = eval (canonical Vc) ~f ~c;
    majority = eval (canonical Majority) ~f ~c;
  }

let threshold_of th = function
  | Sigma -> th.sigma
  | Tau -> th.tau
  | Pi -> th.pi
  | Vc -> th.vc
  | Majority -> th.majority

(* An obligation applies at a grid point when [applies] holds there
   (the majority obligations are c = 0 only: quorum_bft is the PBFT
   baseline quorum and 2(2f+1) - n = f + 1 - 2c fails for c > 0), and
   is discharged when every margin is >= 0.  Margins are affine in
   (f, c) whenever the thresholds are linear forms — that is what lets
   the analyzer's finite-difference check extend grid enumeration to
   all admissible (f, c); equalities contribute two margins (>= in
   both directions). *)
type obligation = {
  name : string;
  law : string;
  applies : thresholds -> bool;
  margins : thresholds -> int list;
}

let always _ = true
let crash_free th = Int.equal th.c 0

(* Safety: two quorums overlap in >= f+1 replicas, so at least one
   non-byzantine replica is in both and equivocation is detected.
   Liveness: a threshold must stay reachable with f replicas silent
   (the fast-path sigma only promises progress with c silent). *)
let obligations =
  [
    {
      name = "sigma-sigma-intersection";
      law = "2*sigma - n >= f + 1";
      applies = always;
      margins = (fun t -> [ (2 * t.sigma) - t.n - (t.f + 1) ]);
    };
    {
      name = "sigma-vc-intersection";
      law = "sigma + vc - n >= f + 1";
      applies = always;
      margins = (fun t -> [ t.sigma + t.vc - t.n - (t.f + 1) ]);
    };
    {
      name = "tau-tau-intersection";
      law = "2*tau - n >= f + 1";
      applies = always;
      margins = (fun t -> [ (2 * t.tau) - t.n - (t.f + 1) ]);
    };
    {
      name = "tau-vc-intersection";
      law = "tau + vc - n >= f + 1";
      applies = always;
      margins = (fun t -> [ t.tau + t.vc - t.n - (t.f + 1) ]);
    };
    {
      name = "vc-vc-intersection";
      law = "2*vc - n >= f + 1";
      applies = always;
      margins = (fun t -> [ (2 * t.vc) - t.n - (t.f + 1) ]);
    };
    {
      (* Equality pins pi against silent +1 drift that no intersection
         or liveness obligation would catch. *)
      name = "pi-def";
      law = "pi = f + 1";
      applies = always;
      margins = (fun t -> [ t.pi - (t.f + 1); t.f + 1 - t.pi ]);
    };
    {
      name = "ordering-tau-sigma";
      law = "tau <= sigma";
      applies = always;
      margins = (fun t -> [ t.sigma - t.tau ]);
    };
    {
      name = "ordering-pi-tau";
      law = "pi <= tau";
      applies = always;
      margins = (fun t -> [ t.tau - t.pi ]);
    };
    {
      name = "sigma-bound";
      law = "sigma <= n";
      applies = always;
      margins = (fun t -> [ t.n - t.sigma ]);
    };
    {
      name = "vc-bound";
      law = "vc <= n";
      applies = always;
      margins = (fun t -> [ t.n - t.vc ]);
    };
    {
      name = "tau-live";
      law = "tau <= n - f";
      applies = always;
      margins = (fun t -> [ t.n - t.f - t.tau ]);
    };
    {
      name = "vc-live";
      law = "vc <= n - f";
      applies = always;
      margins = (fun t -> [ t.n - t.f - t.vc ]);
    };
    {
      name = "pi-live";
      law = "pi <= n - f";
      applies = always;
      margins = (fun t -> [ t.n - t.f - t.pi ]);
    };
    {
      (* sigma = 3f + c + 1 > n - f for f > c: the fast path only
         promises progress when at most c replicas are silent, so its
         liveness bound is n - c, not n - f (it falls back to tau
         otherwise). *)
      name = "sigma-live-c";
      law = "sigma <= n - c";
      applies = always;
      margins = (fun t -> [ t.n - t.c - t.sigma ]);
    };
    {
      name = "majority-intersection";
      law = "2*majority - n >= f + 1 (c = 0)";
      applies = crash_free;
      margins = (fun t -> [ (2 * t.majority) - t.n - (t.f + 1) ]);
    };
    {
      name = "majority-live";
      law = "majority <= n - f (c = 0)";
      applies = crash_free;
      margins = (fun t -> [ t.n - t.f - t.majority ]);
    };
  ]

let holds o th = List.for_all (fun m -> m >= 0) (o.margins th)
let failures th = List.filter (fun o -> o.applies th && not (holds o th)) obligations

(* The admissible parameter space: Config.validate requires
   f, c >= 0 and n = 3f + 2c + 1 >= 4.  Every obligation over linear
   threshold forms is an affine g(f, c) = a*f + b*c + d compared
   against 0, so enumeration over the grid up to [grid_bound] plus a
   finite-difference monotonicity check (a = g(1,0) - g(0,0) >= 0 and
   b = g(0,1) - g(0,0) >= 0, both computed by the prover in discipline.ml)
   decides the obligation for ALL admissible (f, c): if a or b were
   negative g would eventually violate for large f or c, and with both
   nonnegative every admissible point dominates one of the minimal
   admissible points (1,0) / (0,2), which the grid covers (the full
   argument is in DESIGN.md). *)
let grid_bound = 8
let admissible ~f ~c = f >= 0 && c >= 0 && (3 * f) + (2 * c) + 1 >= 4

let grid () =
  let pts = ref [] in
  for f = grid_bound downto 0 do
    for c = grid_bound downto 0 do
      if admissible ~f ~c then pts := (f, c) :: !pts
    done
  done;
  !pts
