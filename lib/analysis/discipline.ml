(* Protocol-discipline and quorum-soundness rules over Msgflow
   summaries, and the per-file entry that runs every lint rule.

   R9  WAL-before-send: a send of a promise-bearing message must be
       dominated (in source order, following local calls) by a
       [wal_log] of the matching record type and a [wal_sync] that
       flushed it.  The record<->message correspondence lives in
       [promise_table] — one place, quoted in DESIGN.md.
   R10 charge by construction: a file with [on_*] handlers calls no
       priced crypto/storage primitive and no [Engine.charge] (it goes
       through the Priced layer), and every function of the layer that
       calls a primitive contains an [Engine.charge].
   R11 send-amplification: a send inside iteration over a
       handler-parameter collection, or an unguarded send of an
       amplifying message (full state / new-view retransmissions),
       needs a recognizable rate-limit guard.
   R12 symbolic quorum soundness: every threshold *definition* in
       lib/core/config.ml and every threshold *comparison* reachable
       from protocol code is extracted as a linear form over (f, c)
       with n = 3f + 2c + 1, and the shared obligation list
       (Quorum_props: intersection, ordering, liveness) is discharged
       by exact enumeration over the admissible grid plus a
       finite-difference monotonicity check that extends the result to
       all admissible (f, c).  Hand-adjusted comparisons
       ([quorum t - 1]) must carry a checked [[@quorum.adjust k]]
       annotation declaring the k implicit votes, and every declared
       Config.mutation must provably violate at least one obligation
       (a mutation the fuzzer injects but the maths forgives is a dead
       oracle).
   R13 timer discipline: every raw [set_timer] arm site must guard its
       callback with a cancel token ([retired], [done_], ...) that is
       actually assigned somewhere in the file, or route through a
       local [set_replica_timer] wrapper that does — statically
       killing the zombie-timer class.
   R14 sanitizer coverage: in files that call the runtime sanitizer, a
       threshold-crossing decision ([count >= threshold]) must be
       paired, in the same function, with a [Sanitizer.check_quorum]
       of the matching quorum kind.
   R15 no-wildcard tables: the wire-size/kind tables of msg-defining
       files and the Cost_model price tables must stay exhaustive —
       a wildcard case lets a new constructor ship unaccounted.

   All of them are syntactic and deliberately strict on the shapes the
   protocol uses; vetted exceptions go through lint.allow like any
   other rule. *)

let mem x xs = List.exists (String.equal x) xs

let finding ~rule ~file ~line message = { Lint.rule; file; line; message }

(* Does any function of the file produce an event satisfying [p]? *)
let file_has (fl : Msgflow.file) p =
  List.exists
    (fun (f : Msgflow.func) ->
      List.exists (fun (e : Msgflow.einfo) -> p e.Msgflow.ev) f.Msgflow.fn_events)
    fl.Msgflow.funcs

(* ------------------------------------------------------------------ *)
(* R9: the record <-> message correspondence table.

   A message is promise-bearing when a restarted replica that forgot
   sending it could equivocate; the required records are the WAL
   entries whose replay re-establishes the promise (any one of the
   alternatives suffices).  Aggregate proof messages
   (Full_commit_proof, Full_commit_proof_slow, New_view) carry
   threshold certificates built from *others'* promises and are
   self-certifying, so they are deliberately absent; Sign_state shares
   an execution digest that the Client_row records already pin. *)

let promise_table =
  [
    ("Sign_share", [ "Accepted_pre_prepare" ]);
    ("Commit", [ "Accepted_prepare" ]);
    ("Full_execute_proof", [ "Stable_checkpoint" ]);
    ("Execute_ack", [ "Client_row"; "Stable_checkpoint" ]);
    ("View_change", [ "View_change_started" ]);
  ]

let uses_wal fl =
  file_has fl (function Msgflow.Log _ | Msgflow.Sync -> true | _ -> false)

(* Linear simulation threading (logged, synced) record sets through the
   event stream of each handler, inlining local calls (cycles cut by
   the call stack).  Source order approximates domination: a branch
   cannot un-log a record, so the only miss is a send textually after a
   sync that runtime control flow could skip — acceptable for a
   checker whose job is catching *removed* log/sync pairs. *)
let r9 (fl : Msgflow.file) =
  if not (uses_wal fl) then []
  else begin
    let findings = ref [] in
    let rec sim stack state (events : Msgflow.einfo list) =
      List.fold_left
        (fun (logged, synced) (e : Msgflow.einfo) ->
          match e.Msgflow.ev with
          | Msgflow.Log r -> (r :: logged, synced)
          | Msgflow.Sync -> ([], logged @ synced)
          | Msgflow.Send { ctor = Some c; _ } ->
              (match List.assoc_opt c promise_table with
              | Some required when not (List.exists (fun r -> mem r synced) required) ->
                  findings :=
                    finding ~rule:"R9" ~file:fl.Msgflow.path ~line:e.Msgflow.line
                      (Printf.sprintf
                         "promise-bearing send of %s without a synced %s WAL \
                          record on this path (wal_log + wal_sync must come \
                          first)"
                         c
                         (String.concat "/" required))
                    :: !findings
              | _ -> ());
              (logged, synced)
          | Msgflow.Call n when not (mem n stack) -> (
              match Msgflow.find_func fl.Msgflow.funcs n with
              | Some f -> sim (n :: stack) (logged, synced) f.Msgflow.fn_events
              | None -> (logged, synced))
          | _ -> (logged, synced))
        state events
    in
    List.iter
      (fun (f : Msgflow.func) ->
        if Msgflow.is_handler f.Msgflow.fn_name then
          ignore (sim [ f.Msgflow.fn_name ] ([], []) f.Msgflow.fn_events))
      fl.Msgflow.funcs;
    !findings
  end

(* ------------------------------------------------------------------ *)
(* R10: charge by construction, two syntactic checks.  (a) A file with
   an [on_*] handler calls no priced primitive and no [Engine.charge].
   (b) In the priced layer ([priced.ml]), every top-level function that
   calls a primitive contains an [Engine.charge]. *)

let r10 (fl : Msgflow.file) =
  let funcs = fl.Msgflow.funcs in
  let at (e : Msgflow.einfo) fmt =
    Printf.ksprintf (finding ~rule:"R10" ~file:fl.Msgflow.path ~line:e.Msgflow.line) fmt
  in
  let crypto (e : Msgflow.einfo) =
    match e.Msgflow.ev with Msgflow.Crypto callee -> Some callee | _ -> None
  in
  let charge (e : Msgflow.einfo) =
    match e.Msgflow.ev with Msgflow.Charge -> true | _ -> false
  in
  if List.exists (fun (f : Msgflow.func) -> Msgflow.is_handler f.Msgflow.fn_name) funcs then
    List.concat_map
      (fun (f : Msgflow.func) ->
        List.filter_map
          (fun e ->
            match crypto e with
            | Some callee ->
                Some
                  (at e "priced primitive %s called in %s, in a file with handlers; \
                         call the Priced function that charges it" callee f.Msgflow.fn_name)
            | None when charge e ->
                Some
                  (at e "Engine.charge in %s, in a file with handlers; charge through Priced"
                     f.Msgflow.fn_name)
            | None -> None)
          f.Msgflow.fn_events)
      funcs
  else if String.equal (Filename.basename fl.Msgflow.path) "priced.ml" then
    List.filter_map
      (fun (f : Msgflow.func) ->
        let events = f.Msgflow.fn_events in
        if List.exists charge events then None
        else
          List.find_map
            (fun e ->
              Option.map
                (fun callee ->
                  at e "priced function %s calls %s without an Engine.charge"
                    f.Msgflow.fn_name callee)
                (crypto e))
            events)
      funcs
  else []

(* ------------------------------------------------------------------ *)
(* R11: send amplification.

   Checked lexically per handler (helper-internal fan-out like
   [broadcast_replicas] is the protocol's own bounded all-replica
   multicast).  A guard is recognized by name: pacing state the code
   consults before sending. *)

let amplifying = [ "New_view"; "State_resp" ]

let guard_tokens = [ "allow"; "rate"; "resent"; "paced"; "served" ]

let is_guarded (e : Msgflow.einfo) =
  List.exists
    (fun g ->
      String.equal g "mem" (* Hashtbl.mem dedup: at-most-once per key *)
      || List.exists (fun tok -> Lint.contains_sub g tok) guard_tokens)
    e.Msgflow.guard_names

let r11 (fl : Msgflow.file) =
  let implicit = Lint.implicit_params in
  List.concat_map
    (fun (f : Msgflow.func) ->
      if not (Msgflow.is_handler f.Msgflow.fn_name) then []
      else
        List.filter_map
          (fun (e : Msgflow.einfo) ->
            match e.Msgflow.ev with
            | Msgflow.Send { ctor; _ } when not (is_guarded e) -> (
                let tainted =
                  List.filter
                    (fun v ->
                      mem v f.Msgflow.fn_params && not (mem v implicit))
                    e.Msgflow.iter_vars
                in
                match (tainted, ctor) with
                | v :: _, _ ->
                    Some
                      (finding ~rule:"R11" ~file:fl.Msgflow.path
                         ~line:e.Msgflow.line
                         (Printf.sprintf
                            "send inside iteration over peer-controlled '%s' \
                             in %s without a rate-limit guard"
                            v f.Msgflow.fn_name))
                | [], Some c when mem c amplifying ->
                    Some
                      (finding ~rule:"R11" ~file:fl.Msgflow.path
                         ~line:e.Msgflow.line
                         (Printf.sprintf
                            "unguarded send of amplifying message %s in %s; \
                             gate it on pacing state"
                            c f.Msgflow.fn_name))
                | _ -> None)
            | _ -> None)
          f.Msgflow.fn_events)
    fl.Msgflow.funcs

(* ------------------------------------------------------------------ *)
(* Threshold definitions (R12, definitional half) *)

let kind_table =
  [
    ("sigma_threshold", Quorum_props.Sigma);
    ("tau_threshold", Quorum_props.Tau);
    ("pi_threshold", Quorum_props.Pi);
    ("quorum_vc", Quorum_props.Vc);
    ("quorum_bft", Quorum_props.Majority);
  ]

let kind_ctor = function
  | Quorum_props.Sigma -> "Sigma"
  | Quorum_props.Tau -> "Tau"
  | Quorum_props.Pi -> "Pi"
  | Quorum_props.Vc -> "Vc"
  | Quorum_props.Majority -> "Majority"

let all_kinds = List.map snd kind_table

let name_of_kind k =
  fst (List.find (fun (_, k') -> k' = k) kind_table)

type def = {
  d_line : int;
  d_form : Quorum_props.linear option;  (** the real (non-mutated) branch *)
  d_mutations : (string * Quorum_props.linear option) list;
      (** mutation constructor -> its weakened form *)
}

type defs = {
  defs_path : string;
  n_form : (int * Quorum_props.linear option) option;  (** line, form *)
  by_kind : (Quorum_props.kind * def) list;
  mutation_ctors : string list;  (** declared [type mutation] constructors *)
}

let rec peel_body (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_fun (_, _, _, body) -> peel_body body
  | Pexp_newtype (_, body) -> peel_body body
  | Pexp_constraint (e, _) -> peel_body e
  | _ -> e

let binding_name (vb : Parsetree.value_binding) =
  match vb.pvb_pat.ppat_desc with
  | Ppat_var { txt; _ } -> Some txt
  | _ -> None

(* Does this expression scrutinize the config's [mutation] field? *)
let rec is_mutation_scrutinee (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_field (_, { txt; _ }) -> String.equal (Lint.last_component txt) "mutation"
  | Pexp_ident { txt; _ } -> String.equal (Lint.last_component txt) "mutation"
  | Pexp_constraint (e, _) | Pexp_open (_, e) -> is_mutation_scrutinee e
  | _ -> false

(* [match t.mutation with Some Ctor -> weakened | None -> real]: the
   None (or catch-all [_]) branch is the definition, each Some branch
   a mutation form. *)
let def_branches (body : Parsetree.expression) =
  match body.pexp_desc with
  | Pexp_match (scrut, cases) when is_mutation_scrutinee scrut ->
      List.fold_left
        (fun (real, muts) (case : Parsetree.case) ->
          match case.pc_lhs.ppat_desc with
          | Ppat_any -> (Msgflow.linear_of_expr case.pc_rhs, muts)
          | Ppat_construct ({ txt; _ }, None)
            when String.equal (Lint.last_component txt) "None" ->
              (Msgflow.linear_of_expr case.pc_rhs, muts)
          | Ppat_construct ({ txt; _ }, Some (_, inner))
            when String.equal (Lint.last_component txt) "Some" -> (
              match inner.ppat_desc with
              | Ppat_construct ({ txt = ctor; _ }, _) ->
                  ( real,
                    muts
                    @ [ (Lint.last_component ctor, Msgflow.linear_of_expr case.pc_rhs) ]
                  )
              | _ -> (real, muts))
          | _ -> (real, muts))
        (None, []) cases
  | _ -> (Msgflow.linear_of_expr body, [])

(* Extract the threshold definitions a structure contains; [None] when
   it defines none (an ordinary protocol file). *)
let extract_defs ~path structure =
  let n_form = ref None and by_kind = ref [] in
  List.iter
    (fun (vb : Parsetree.value_binding) ->
      let line = vb.pvb_loc.Location.loc_start.Lexing.pos_lnum in
      match binding_name vb with
      | Some "n" ->
          if Option.is_none !n_form then
            n_form := Some (line, Msgflow.linear_of_expr (peel_body vb.pvb_expr))
      | Some name when List.mem_assoc name kind_table ->
          let kind = List.assoc name kind_table in
          if not (List.mem_assoc kind !by_kind) then begin
            let d_form, d_mutations = def_branches (peel_body vb.pvb_expr) in
            by_kind := !by_kind @ [ (kind, { d_line = line; d_form; d_mutations }) ]
          end
      | _ -> ())
    (Lint.structure_bindings structure);
  match !by_kind with
  | [] -> None
  | by_kind ->
      Some
        {
          defs_path = path;
          n_form = !n_form;
          by_kind;
          mutation_ctors = Msgflow.variant_constructors ~type_name:"mutation" structure;
        }

(* Canonical definitions, for when the tree's config.ml is not among
   the linted files (fixture runs, unit tests). *)
let default_defs =
  {
    defs_path = "lib/core/config.ml";
    n_form = Some (0, Some Quorum_props.n_linear);
    by_kind =
      List.map
        (fun (_, k) ->
          (k, { d_line = 0; d_form = Some (Quorum_props.canonical k); d_mutations = [] }))
        kind_table;
    mutation_ctors = [];
  }

(* ------------------------------------------------------------------ *)
(* The bounded-enumeration prover.

   Every margin of every obligation is affine in (f, c) once the
   thresholds are linear forms: m(f, c) = m00 + f*df + c*dc with
   df = m(1,0) - m(0,0) and dc = m(0,1) - m(0,0).  The obligation
   holds for ALL admissible (f, c) iff it holds at every admissible
   grid point up to Quorum_props.grid_bound AND df, dc >= 0 along the
   directions where the obligation still applies: a negative
   difference makes the margin negative for large enough f or c, and
   with both nonnegative every admissible point dominates a minimal
   admissible point — (1,0) or (0,2) — that the grid covers. *)

let form_of defs kind =
  match List.assoc_opt kind defs.by_kind with
  | Some { d_form = Some l; _ } -> l
  | _ -> Quorum_props.canonical kind

let thresholds_at ?override defs ~f ~c =
  let form kind =
    match override with
    | Some (k, l) when k = kind -> l
    | _ -> form_of defs kind
  in
  let n_l =
    match defs.n_form with
    | Some (_, Some l) -> l
    | _ -> Quorum_props.n_linear
  in
  {
    Quorum_props.f;
    c;
    n = Quorum_props.eval n_l ~f ~c;
    sigma = Quorum_props.eval (form Quorum_props.Sigma) ~f ~c;
    tau = Quorum_props.eval (form Quorum_props.Tau) ~f ~c;
    pi = Quorum_props.eval (form Quorum_props.Pi) ~f ~c;
    vc = Quorum_props.eval (form Quorum_props.Vc) ~f ~c;
    majority = Quorum_props.eval (form Quorum_props.Majority) ~f ~c;
  }

type verdict =
  | Proved
  | Grid_violation of { f : int; c : int }  (** witness point *)
  | Unbounded_violation of { var : string }
      (** margin decreases without bound along [var] *)

let prove ?override defs (o : Quorum_props.obligation) =
  let at ~f ~c = thresholds_at ?override defs ~f ~c in
  let witness =
    List.find_opt
      (fun (f, c) ->
        let th = at ~f ~c in
        o.Quorum_props.applies th && not (Quorum_props.holds o th))
      (Quorum_props.grid ())
  in
  match witness with
  | Some (f, c) -> Grid_violation { f; c }
  | None ->
      let m00 = o.Quorum_props.margins (at ~f:0 ~c:0) in
      let m10 = o.Quorum_props.margins (at ~f:1 ~c:0) in
      let m01 = o.Quorum_props.margins (at ~f:0 ~c:1) in
      let decreasing probe = List.exists2 (fun a b -> b - a < 0) m00 probe in
      if o.Quorum_props.applies (at ~f:1 ~c:0) && decreasing m10 then
        Unbounded_violation { var = "f" }
      else if o.Quorum_props.applies (at ~f:0 ~c:1) && decreasing m01 then
        Unbounded_violation { var = "c" }
      else Proved

(* First obligation a candidate threshold assignment violates — used
   to prove each declared mutation actually breaks something. *)
let first_violation ?override defs =
  List.find_map
    (fun (o : Quorum_props.obligation) ->
      match prove ?override defs o with
      | Proved -> None
      | Grid_violation { f; c } -> Some (o, Printf.sprintf "(f=%d, c=%d)" f c)
      | Unbounded_violation { var } ->
          Some (o, Printf.sprintf "(unbounded in %s)" var))
    Quorum_props.obligations

(* ------------------------------------------------------------------ *)
(* R12, definitional half: run on any file that defines thresholds. *)

let lint_defs defs =
  let file = defs.defs_path in
  let acc = ref [] in
  let add line msg = acc := finding ~rule:"R12" ~file ~line msg :: !acc in
  (* Every kind defined, as a linear form, matching the shared
     canonical formula the sanitizer derives from. *)
  (match defs.n_form with
  | None -> add 1 "no definition of n found (expected n = 3f + 2c + 1)"
  | Some (line, None) -> add line "n is not a linear form over (f, c)"
  | Some (line, Some l) ->
      if l <> Quorum_props.n_linear then
        add line
          (Printf.sprintf "n = %s diverges from the canonical %s"
             (Quorum_props.pp_linear l)
             (Quorum_props.pp_linear Quorum_props.n_linear)));
  List.iter
    (fun kind ->
      match List.assoc_opt kind defs.by_kind with
      | None ->
          add 1
            (Printf.sprintf "no definition of %s found" (name_of_kind kind))
      | Some { d_line; d_form = None; _ } ->
          add d_line
            (Printf.sprintf "%s is not a linear form over (f, c)"
               (name_of_kind kind))
      | Some { d_line; d_form = Some l; _ } ->
          let canon = Quorum_props.canonical kind in
          if l <> canon then
            add d_line
              (Printf.sprintf
                 "%s = %s diverges from the shared canonical form %s"
                 (name_of_kind kind) (Quorum_props.pp_linear l)
                 (Quorum_props.pp_linear canon)))
    all_kinds;
  (* Discharge every obligation for the definitions as extracted. *)
  List.iter
    (fun (o : Quorum_props.obligation) ->
      let line =
        (* Attach to the first threshold the obligation names. *)
        let prefixes =
          [
            ("sigma", Quorum_props.Sigma);
            ("tau", Quorum_props.Tau);
            ("pi", Quorum_props.Pi);
            ("vc", Quorum_props.Vc);
            ("majority", Quorum_props.Majority);
            ("ordering-tau", Quorum_props.Tau);
            ("ordering-pi", Quorum_props.Pi);
          ]
        in
        match
          List.find_opt
            (fun (prefix, _) -> String.starts_with ~prefix o.Quorum_props.name)
            prefixes
        with
        | Some (_, k) -> (
            match List.assoc_opt k defs.by_kind with
            | Some d -> d.d_line
            | None -> 1)
        | None -> 1
      in
      match prove defs o with
      | Proved -> ()
      | Grid_violation { f; c } ->
          add line
            (Printf.sprintf "obligation %s violated (%s) at f=%d c=%d"
               o.Quorum_props.name o.Quorum_props.law f c)
      | Unbounded_violation { var } ->
          add line
            (Printf.sprintf
               "obligation %s violated (%s) for sufficiently large %s"
               o.Quorum_props.name o.Quorum_props.law var))
    Quorum_props.obligations;
  (* Every declared mutation must provably violate an obligation, else
     the fuzzer's weakening is a dead oracle. *)
  let covered = ref [] in
  List.iter
    (fun (kind, d) ->
      List.iter
        (fun (ctor, form) ->
          covered := ctor :: !covered;
          match form with
          | None ->
              add d.d_line
                (Printf.sprintf "mutation %s of %s is not a linear form" ctor
                   (name_of_kind kind))
          | Some l -> (
              match first_violation ~override:(kind, l) defs with
              | Some _ -> ()
              | None ->
                  add d.d_line
                    (Printf.sprintf
                       "mutation %s (%s = %s) violates no obligation on the \
                        admissible grid — a vacuous weakening"
                       ctor (name_of_kind kind) (Quorum_props.pp_linear l))))
        d.d_mutations)
    defs.by_kind;
  List.iter
    (fun ctor ->
      if not (mem ctor !covered) then
        add 1
          (Printf.sprintf
             "mutation constructor %s weakens no threshold definition" ctor))
    defs.mutation_ctors;
  List.rev !acc

(* ------------------------------------------------------------------ *)
(* Site analysis: R12 comparison half, R13, R14 *)

(* Local aliases like pbft's [let quorum t = Config.quorum_bft (cfg t)]:
   a top-level binding whose body is a bare (unadjusted) call to a
   known threshold function. *)
let alias_map structure =
  List.filter_map
    (fun (vb : Parsetree.value_binding) ->
      match binding_name vb with
      | Some name when not (List.mem_assoc name kind_table) -> (
          match Msgflow.tside_of_expr (peel_body vb.pvb_expr) with
          | Some (Msgflow.T_call { callee; adjust = 0 })
            when List.mem_assoc callee kind_table ->
              Some (name, List.assoc callee kind_table)
          | _ -> None)
      | _ -> None)
    (Lint.structure_bindings structure)

let resolve_kind defs aliases (thresh : Msgflow.tside) =
  match thresh with
  | Msgflow.T_call { callee; _ } -> (
      match List.assoc_opt callee kind_table with
      | Some k -> Some k
      | None -> List.assoc_opt callee aliases)
  | Msgflow.T_linear l ->
      List.find_map
        (fun kind -> if form_of defs kind = l then Some kind else None)
        all_kinds

let pp_tside = function
  | Msgflow.T_call { callee; adjust = 0 } -> callee
  | Msgflow.T_call { callee; adjust } -> Printf.sprintf "%s %+d" callee adjust
  | Msgflow.T_linear l -> Quorum_props.pp_linear l

(* R12 per comparison site: the threshold must resolve to a known
   quorum kind, and any hand adjustment must carry a matching
   [@quorum.adjust k] annotation declaring the k implicit votes. *)
let r12_site aliases defs (fl : Msgflow.file) =
  List.concat_map
    (fun (fn : Msgflow.func) ->
      List.filter_map
        (fun (e : Msgflow.einfo) ->
          match e.Msgflow.ev with
          | Msgflow.Threshold_cmp { thresh; annot; _ } -> (
              let fail msg =
                Some (finding ~rule:"R12" ~file:fl.Msgflow.path ~line:e.Msgflow.line msg)
              in
              match resolve_kind defs aliases thresh with
              | None ->
                  fail
                    (Printf.sprintf
                       "comparison against unresolved threshold form %s"
                       (pp_tside thresh))
              | Some _ -> (
                  let adjust =
                    match thresh with
                    | Msgflow.T_call { adjust; _ } -> adjust
                    | Msgflow.T_linear _ -> 0
                  in
                  match annot with
                  | Some k when Int.equal k min_int ->
                      fail "malformed [@quorum.adjust] payload (expected an integer)"
                  | None when not (Int.equal adjust 0) ->
                      fail
                        (Printf.sprintf
                           "hand-adjusted threshold comparison (%s) without a \
                            [@quorum.adjust %d] annotation declaring the \
                            implicit votes"
                           (pp_tside thresh) (-adjust))
                  | Some k when Int.equal adjust 0 ->
                      fail
                        (Printf.sprintf
                           "[@quorum.adjust %d] on an unadjusted comparison" k)
                  | Some k when not (Int.equal k (-adjust)) ->
                      fail
                        (Printf.sprintf
                           "[@quorum.adjust %d] does not match the adjustment \
                            (%s declares %d implicit votes)"
                           k (pp_tside thresh) (-adjust))
                  | _ -> None))
          | _ -> None)
        fn.Msgflow.fn_events)
    fl.Msgflow.funcs

(* ------------------------------------------------------------------ *)
(* R13: timer discipline *)

let cancel_words = [ "retire"; "halt"; "stop"; "cancel"; "done" ]

(* Field/instance-variable names assigned anywhere in the file: a
   cancel guard must test a flag something actually sets. *)
let assigned_fields structure =
  let acc = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it ex ->
          (match ex.Parsetree.pexp_desc with
          | Pexp_setfield (_, { txt; _ }, _) ->
              acc := Lint.last_component txt :: !acc
          | Pexp_setinstvar ({ txt; _ }, _) -> acc := txt :: !acc
          | _ -> ());
          Ast_iterator.default_iterator.expr it ex);
    }
  in
  List.iter (fun si -> it.structure_item it si) structure;
  List.sort_uniq String.compare !acc

let r13 structure (fl : Msgflow.file) =
  let fields = assigned_fields structure in
  let local_funcs = List.map (fun (f : Msgflow.func) -> f.Msgflow.fn_name) fl.Msgflow.funcs in
  let guarded cb_guards =
    List.exists
      (fun g ->
        List.exists (fun w -> Lint.contains_sub g w) cancel_words && mem g fields)
      cb_guards
  in
  List.concat_map
    (fun (fn : Msgflow.func) ->
      List.filter_map
        (fun (e : Msgflow.einfo) ->
          match e.Msgflow.ev with
          | Msgflow.Timer_arm { callee; cb_guards } ->
              let ok =
                if String.equal callee "set_replica_timer" then
                  (* A call through the wrapper: the wrapper's own raw
                     arm site is checked where it is defined. *)
                  mem "set_replica_timer" local_funcs || guarded cb_guards
                else guarded cb_guards
              in
              if ok then None
              else
                Some
                  (finding ~rule:"R13" ~file:fl.Msgflow.path ~line:e.Msgflow.line
                     (Printf.sprintf
                        "%s arms a timer whose callback has no cancel/retire \
                         guard (no assigned flag matching %s tested in the \
                         callback)"
                        callee
                        (String.concat "/" cancel_words)))
          | _ -> None)
        fn.Msgflow.fn_events)
    fl.Msgflow.funcs

(* ------------------------------------------------------------------ *)
(* R14: sanitizer coverage *)

(* A threshold-crossing decision is [count >= thresh] or
   [count > thresh] (slicing loops compare with [<] and claim no
   quorum).  The pairing is per top-level function — closures are
   inlined into their defining function's event stream. *)
let r14 aliases defs (fl : Msgflow.file) =
  if not (file_has fl (function Msgflow.San_check _ -> true | _ -> false)) then []
    (* Files that never touch the sanitizer (clients checking f+1
       replies) have nothing to pair against. *)
  else
    List.concat_map
      (fun (fn : Msgflow.func) ->
        let checks =
          List.filter_map
            (fun (e : Msgflow.einfo) ->
              match e.Msgflow.ev with
              | Msgflow.San_check kind -> Some kind
              | _ -> None)
            fn.Msgflow.fn_events
        in
        List.filter_map
          (fun (e : Msgflow.einfo) ->
            match e.Msgflow.ev with
            | Msgflow.Threshold_cmp { op = ">=" | ">"; thresh; _ } -> (
                match resolve_kind defs aliases thresh with
                | None -> None (* already an R12 finding *)
                | Some kind ->
                    if mem (kind_ctor kind) checks then None
                    else
                      Some
                        (finding ~rule:"R14" ~file:fl.Msgflow.path ~line:e.Msgflow.line
                           (Printf.sprintf
                              "threshold-crossing decision on %s (%s) has no \
                               Sanitizer.check_quorum %s in this function"
                              (Quorum_props.kind_name kind) (pp_tside thresh)
                              (kind_ctor kind))))
            | _ -> None)
          fn.Msgflow.fn_events)
      fl.Msgflow.funcs

(* ------------------------------------------------------------------ *)
(* R15: no-wildcard price/size tables *)

let stdlib_ctors = [ "Some"; "None"; "::"; "[]"; "()"; "true"; "false" ]

let rec pat_head_ctor (p : Parsetree.pattern) =
  match p.ppat_desc with
  | Ppat_construct ({ txt; _ }, _) -> Some (Lint.last_component txt)
  | Ppat_alias (p, _) | Ppat_constraint (p, _) -> pat_head_ctor p
  | Ppat_or (a, _) -> pat_head_ctor a
  | _ -> None

let rec pat_is_wildcard (p : Parsetree.pattern) =
  match p.ppat_desc with
  | Ppat_any | Ppat_var _ -> true
  | Ppat_alias (p, _) | Ppat_constraint (p, _) -> pat_is_wildcard p
  | _ -> false

(* A variant table: a [function]/[match] whose cases name at least one
   non-stdlib constructor. *)
let table_cases (body : Parsetree.expression) =
  let cases =
    match body.pexp_desc with
    | Pexp_function cases -> cases
    | Pexp_match (_, cases) -> cases
    | _ -> []
  in
  let is_table =
    List.exists
      (fun (c : Parsetree.case) ->
        match pat_head_ctor c.pc_lhs with
        | Some ctor -> not (mem ctor stdlib_ctors)
        | None -> false)
      cases
  in
  if is_table then cases else []

let r15 ~file structure =
  let is_cost_model = String.equal (Filename.basename file) "cost_model.ml" in
  let has_msg =
    match Msgflow.variant_constructors ~type_name:"msg" structure with [] -> false | _ -> true
  in
  let wire_tables = [ "size"; "kind" ] in
  List.concat_map
    (fun (vb : Parsetree.value_binding) ->
      match binding_name vb with
      | Some name when (has_msg && mem name wire_tables) || is_cost_model ->
          List.filter_map
            (fun (c : Parsetree.case) ->
              if pat_is_wildcard c.pc_lhs then
                Some
                  (finding ~rule:"R15" ~file
                     ~line:c.pc_lhs.ppat_loc.Location.loc_start.Lexing.pos_lnum
                     (Printf.sprintf
                        "wildcard case in %s: a new constructor would ship \
                         unaccounted — match every constructor explicitly"
                        name))
              else None)
            (table_cases (peel_body vb.pvb_expr))
      | _ -> [])
    (Lint.structure_bindings structure)

(* ------------------------------------------------------------------ *)
(* The per-file entry *)

let config_defs = function
  | Ok structure ->
      Option.value
        (extract_defs ~path:default_defs.defs_path structure)
        ~default:default_defs
  | Error _ -> default_defs

(* R9-R15 over one protocol file, all reading its one Msgflow summary. *)
let protocol_rules ~defs ~path structure =
  let fl = Msgflow.summarize ~path structure in
  (* config.ml is the definitions file: its own arithmetic is covered
     by the definitional half, not the site rules. *)
  let quorum_rules =
    match extract_defs ~path structure with
    | Some local_defs -> lint_defs local_defs
    | None ->
        let aliases = alias_map structure in
        r12_site aliases defs fl @ r13 structure fl @ r14 aliases defs fl
  in
  Lint.dedup (r9 fl @ r10 fl @ r11 fl @ quorum_rules @ r15 ~file:path structure)

let check_file ~defs ~path ~mli_exists parsed =
  let path = Lint.normalize path in
  let r5 = Option.to_list (Lint.missing_mli ~path ~mli_exists) in
  match parsed with
  | Error parse_failure -> Lint.sort_findings (r5 @ [ parse_failure ])
  | Ok structure ->
      let protocol =
        if Lint.handler_scope path then protocol_rules ~defs ~path structure else []
      in
      Lint.sort_findings (r5 @ Lint.lint_structure ~path structure @ protocol)

(* ------------------------------------------------------------------ *)
(* The obligation report (CI artifact) *)

let obligation_report defs =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    "# SBFT quorum obligation report (R12)\n\
     # Symbolic threshold definitions, the paper's safety/liveness\n\
     # obligations discharged over the admissible grid (f, c >= 0,\n\
     # n = 3f + 2c + 1 >= 4, enumerated to f, c <= 8 and extended by\n\
     # finite differences), and the declared config mutations with the\n\
     # obligation each one violates.\n";
  Buffer.add_string buf (Printf.sprintf "\ndefinitions (%s):\n" defs.defs_path);
  let show_def name l =
    let canon_mark c = if l = c then "" else "  << DIVERGES from canonical" in
    Buffer.add_string buf
      (Printf.sprintf "  %-16s = %s%s\n" name (Quorum_props.pp_linear l)
         (canon_mark
            (match List.assoc_opt name (List.map (fun (n, k) -> (n, Quorum_props.canonical k)) kind_table) with
            | Some c -> c
            | None -> Quorum_props.n_linear)))
  in
  (match defs.n_form with
  | Some (_, Some l) -> show_def "n" l
  | _ -> Buffer.add_string buf "  n                = <not extracted>\n");
  List.iter
    (fun (name, kind) ->
      match List.assoc_opt kind defs.by_kind with
      | Some { d_form = Some l; _ } -> show_def name l
      | _ -> Buffer.add_string buf (Printf.sprintf "  %-16s = <not extracted>\n" name))
    kind_table;
  Buffer.add_string buf "\nobligations:\n";
  List.iter
    (fun (o : Quorum_props.obligation) ->
      match prove defs o with
      | Proved ->
          Buffer.add_string buf
            (Printf.sprintf "  PASS %-26s %s\n" o.Quorum_props.name
               o.Quorum_props.law)
      | Grid_violation { f; c } ->
          Buffer.add_string buf
            (Printf.sprintf "  FAIL %-26s %s — violated at f=%d c=%d\n"
               o.Quorum_props.name o.Quorum_props.law f c)
      | Unbounded_violation { var } ->
          Buffer.add_string buf
            (Printf.sprintf
               "  FAIL %-26s %s — violated for sufficiently large %s\n"
               o.Quorum_props.name o.Quorum_props.law var))
    Quorum_props.obligations;
  Buffer.add_string buf "\nmutations:\n";
  let any = ref false in
  List.iter
    (fun (kind, d) ->
      List.iter
        (fun (ctor, form) ->
          any := true;
          match form with
          | None ->
              Buffer.add_string buf
                (Printf.sprintf "  %s (%s): <not a linear form>\n" ctor
                   (name_of_kind kind))
          | Some l -> (
              match first_violation ~override:(kind, l) defs with
              | Some (o, where) ->
                  Buffer.add_string buf
                    (Printf.sprintf "  %s: %s = %s violates %s at %s\n" ctor
                       (name_of_kind kind) (Quorum_props.pp_linear l)
                       o.Quorum_props.name where)
              | None ->
                  Buffer.add_string buf
                    (Printf.sprintf "  %s: %s = %s violates NOTHING (vacuous)\n"
                       ctor (name_of_kind kind) (Quorum_props.pp_linear l))))
        d.d_mutations)
    defs.by_kind;
  if not !any then Buffer.add_string buf "  (none declared)\n";
  Buffer.contents buf
