(* Interprocedural per-function summaries of protocol sources.

   For every top-level function in a file this module extracts a linear
   stream of protocol-relevant events — WAL appends/syncs, message
   sends/broadcasts, cost charges, priced crypto calls, and calls to
   other local functions — each tagged with enough syntactic context
   (guard names, iteration variables) for the discipline rules (R9-R15,
   see Discipline) to reason about ordering, pricing and
   rate-limiting.  The same summaries drive the
   [@msgflow] graph artifact: which `on_*` handler can emit which
   message constructor and log which WAL record, resolved through local
   helper calls.

   The extraction is deliberately syntactic: events are recorded in
   source order, lambda bodies are inlined where they appear, and no
   data flow is tracked.  The discipline rules document the resulting
   imprecision; the goal is a checker that is strict on the shapes the
   protocol actually uses, not a general verifier. *)

(* The threshold side of a quorum comparison, as the quorum analyzer
   (R12/R14) needs it: either a call to a threshold-looking function
   with a trailing [+ k] / [- k] adjustment folded in, or inline
   linear arithmetic over the config's [.f] / [.c]. *)
type tside =
  | T_call of { callee : string; adjust : int }
  | T_linear of Quorum_props.linear

type event =
  | Log of string  (** [wal_log _ _ (Ctor ...)] — WAL record constructor *)
  | Sync  (** [wal_sync _ _] *)
  | Send of { ctor : string option; bcast : bool }
      (** [send]/[broadcast*] call; [ctor] is the outermost message
          constructor among the arguments when syntactically visible *)
  | Charge  (** [Engine.charge] *)
  | Crypto of string
      (** call into a priced crypto/storage primitive, as [Module.fn] *)
  | Call of string  (** call to another top-level function of the file *)
  | Threshold_cmp of { op : string; thresh : tside; annot : int option }
      (** comparison of a count against a quorum threshold, normalized
          so the count reads [count op thresh]; [annot] is the value of
          a [[@quorum.adjust k]] attribute on the comparison
          ([Some min_int] when the payload is malformed) *)
  | San_check of string
      (** [Sanitizer.check_quorum _ Kind ~count:_] — the quorum kind
          constructor name, or ["<unknown>"] *)
  | Timer_arm of { callee : string; cb_guards : string list }
      (** [set_timer]/[set_replica_timer] arm site; [cb_guards] are the
          identifier and field names in guard conditions inside the
          callback lambdas *)

type einfo = {
  ev : event;
  line : int;
  iter_vars : string list;
      (** collection expressions' identifiers for enclosing iteration
          combinators ([List.iter] & co.) *)
  guard_names : string list;
      (** identifiers appearing in enclosing [if]/[when] conditions *)
}

type func = {
  fn_name : string;
  fn_line : int;
  fn_params : string list;
  fn_events : einfo list;
}

type file = {
  path : string;
  funcs : func list;
  handled : string list;
      (** constructor names matched by this file's [on_message] *)
}

type section = {
  sec_name : string;
  sec_universe : string list;  (** the [msg] variant's constructors *)
  sec_files : file list;
}

(* ------------------------------------------------------------------ *)
(* Longident / expression helpers *)

(* Last module component (if any) and final name: [Engine.charge] ->
   (Some "Engine", "charge"); [Sbft_store.Wal.append] -> (Some "Wal",
   "append"); a bare ident or field access -> (None, name). *)
let last2 (lid : Longident.t) =
  match lid with
  | Longident.Lident f -> (None, f)
  | Longident.Ldot (prefix, f) -> (Some (Lint.last_component prefix), f)
  | Longident.Lapply (_, l) -> (None, Lint.last_component l)

let rec head_name (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> Some (last2 txt)
  | Pexp_field (_, { txt; _ }) -> Some (None, Lint.last_component txt)
  | Pexp_constraint (e, _) | Pexp_open (_, e) -> head_name e
  | _ -> None

let rec construct_name (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_construct ({ txt; _ }, _) -> Some (Lint.last_component txt)
  | Pexp_constraint (e, _) | Pexp_open (_, e) -> construct_name e
  | _ -> None

let first_construct args =
  List.fold_left
    (fun acc (_, a) ->
      match acc with Some _ -> acc | None -> construct_name a)
    None args

let rec is_lambda (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_fun _ | Pexp_function _ -> true
  | Pexp_constraint (e, _) -> is_lambda e
  | _ -> false

(* All unqualified identifiers under [e] (collection expressions of
   iteration combinators: which variables feed the loop). *)
let expr_idents e =
  let acc = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it ex ->
          (match ex.Parsetree.pexp_desc with
          | Pexp_ident { txt = Longident.Lident s; _ } -> acc := s :: !acc
          | _ -> ());
          Ast_iterator.default_iterator.expr it ex);
    }
  in
  it.expr it e;
  List.sort_uniq String.compare !acc

(* Last components of every identifier under a condition, qualified or
   not — so [Hashtbl.mem seen r] contributes "mem", "seen", "r". *)
let cond_names e =
  let acc = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it ex ->
          (match ex.Parsetree.pexp_desc with
          | Pexp_ident { txt; _ } -> acc := Lint.last_component txt :: !acc
          | _ -> ());
          Ast_iterator.default_iterator.expr it ex);
    }
  in
  it.expr it e;
  List.sort_uniq String.compare !acc

let rec pat_var_names (p : Parsetree.pattern) =
  match p.ppat_desc with
  | Ppat_var { txt; _ } -> [ txt ]
  | Ppat_alias (p, { txt; _ }) -> txt :: pat_var_names p
  | Ppat_constraint (p, _) -> pat_var_names p
  | Ppat_tuple ps -> List.concat_map pat_var_names ps
  | _ -> []

(* ------------------------------------------------------------------ *)
(* Quorum-threshold extraction (R12/R13/R14 raw material) *)

(* A callee that plausibly computes a quorum threshold: the Config
   accessors (sigma_threshold, quorum_vc, ...) and local aliases like
   pbft's [let quorum t = ...].  The analyzer resolves the name against
   the definitions it extracted; an unresolvable name is an R12
   finding, not a silent pass. *)
let is_threshold_name f =
  Lint.contains_sub f "threshold" || Lint.contains_sub f "quorum"

let int_const (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_constant (Pconst_integer (s, None)) -> int_of_string_opt s
  | _ -> None

(* Symbolic linear form of an expression over the parameters f and c,
   appearing as bare identifiers or as record fields ([t.f],
   [config.Config.c]).  [None] when the expression is not linear in
   that vocabulary. *)
let rec linear_of_expr (e : Parsetree.expression) : Quorum_props.linear option =
  let open Quorum_props in
  let var name =
    match name with
    | "f" -> Some { base = 0; fk = 1; ck = 0 }
    | "c" -> Some { base = 0; fk = 0; ck = 1 }
    | _ -> None
  in
  match e.pexp_desc with
  | Pexp_constant (Pconst_integer (s, None)) ->
      Option.map (fun base -> { base; fk = 0; ck = 0 }) (int_of_string_opt s)
  | Pexp_ident { txt; _ } -> var (Lint.last_component txt)
  | Pexp_field (_, { txt; _ }) -> var (Lint.last_component txt)
  | Pexp_constraint (e, _) | Pexp_open (_, e) -> linear_of_expr e
  | Pexp_apply (h, [ (_, a); (_, b) ]) -> (
      match head_name h with
      | Some (None, "+") -> lift2 (fun x y ->
            { base = x.base + y.base; fk = x.fk + y.fk; ck = x.ck + y.ck })
            (linear_of_expr a) (linear_of_expr b)
      | Some (None, "-") -> lift2 (fun x y ->
            { base = x.base - y.base; fk = x.fk - y.fk; ck = x.ck - y.ck })
            (linear_of_expr a) (linear_of_expr b)
      | Some (None, "*") -> (
          match (int_const a, int_const b) with
          | Some k, _ -> Option.map (fun l ->
                { base = k * l.base; fk = k * l.fk; ck = k * l.ck })
                (linear_of_expr b)
          | _, Some k -> Option.map (fun l ->
                { base = k * l.base; fk = k * l.fk; ck = k * l.ck })
                (linear_of_expr a)
          | None, None -> None)
      | _ -> None)
  | _ -> None

and lift2 f a b =
  match (a, b) with Some x, Some y -> Some (f x y) | _ -> None

(* The threshold side of a comparison: a threshold-function call with
   any trailing [+/- k] folded into [adjust], else an inline linear
   form that actually mentions f or c. *)
let rec tside_of_expr (e : Parsetree.expression) : tside option =
  let as_linear () =
    match linear_of_expr e with
    | Some l when not (Int.equal l.Quorum_props.fk 0 && Int.equal l.Quorum_props.ck 0) ->
        Some (T_linear l)
    | _ -> None
  in
  match e.pexp_desc with
  | Pexp_constraint (e, _) | Pexp_open (_, e) -> tside_of_expr e
  | Pexp_apply (h, [ (_, a); (_, b) ]) -> (
      match head_name h with
      | Some (None, (("+" | "-") as op)) -> (
          let sign = if String.equal op "+" then 1 else -1 in
          match (tside_of_expr a, int_const b) with
          | Some (T_call t), Some k ->
              Some (T_call { t with adjust = t.adjust + (sign * k) })
          | _ -> as_linear ())
      | Some (_, f) when is_threshold_name f ->
          Some (T_call { callee = f; adjust = 0 })
      | _ -> as_linear ())
  | Pexp_apply (h, _) -> (
      match head_name h with
      | Some (_, f) when is_threshold_name f ->
          Some (T_call { callee = f; adjust = 0 })
      | _ -> as_linear ())
  | _ -> as_linear ()

let cmp_ops = [ "<"; ">"; "<="; ">=" ]

let flip_op = function
  | "<" -> ">"
  | ">" -> "<"
  | "<=" -> ">="
  | ">=" -> "<="
  | op -> op

let adjust_annot (attrs : Parsetree.attributes) =
  List.find_map
    (fun (a : Parsetree.attribute) ->
      if String.equal a.attr_name.txt "quorum.adjust" then
        match a.attr_payload with
        | PStr
            [
              {
                pstr_desc =
                  Pstr_eval
                    ({ pexp_desc = Pexp_constant (Pconst_integer (s, None)); _ }, _);
                _;
              };
            ] ->
            Some (Option.value (int_of_string_opt s) ~default:min_int)
        | _ -> Some min_int
      else None)
    attrs

let san_kinds = [ "Sigma"; "Tau"; "Pi"; "Vc"; "Majority" ]

let san_kind_of_args args =
  List.fold_left
    (fun acc (_, a) ->
      match acc with
      | Some _ -> acc
      | None -> (
          match construct_name a with
          | Some c when List.exists (String.equal c) san_kinds -> Some c
          | _ -> None))
    None args

(* Identifier and field names appearing in guard conditions ([if] /
   [while] / [when]) inside the lambda arguments of a timer-arm call:
   the cancel tokens R13 looks for ([retired], [done_], ...). *)
let lambda_guard_names args =
  let acc = ref [] in
  let cond_tokens e =
    let toks = ref [] in
    let it =
      {
        Ast_iterator.default_iterator with
        expr =
          (fun it ex ->
            (match ex.Parsetree.pexp_desc with
            | Pexp_ident { txt; _ } -> toks := Lint.last_component txt :: !toks
            | Pexp_field (_, { txt; _ }) -> toks := Lint.last_component txt :: !toks
            | _ -> ());
            Ast_iterator.default_iterator.expr it ex);
      }
    in
    it.expr it e;
    !toks
  in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it ex ->
          (match ex.Parsetree.pexp_desc with
          | Pexp_ifthenelse (cond, _, _) | Pexp_while (cond, _) ->
              acc := cond_tokens cond @ !acc
          | _ -> ());
          Ast_iterator.default_iterator.expr it ex);
      case =
        (fun it (cs : Parsetree.case) ->
          (match cs.pc_guard with
          | Some g -> acc := cond_tokens g @ !acc
          | None -> ());
          Ast_iterator.default_iterator.case it cs);
    }
  in
  List.iter (fun (_, a) -> if is_lambda a then it.expr it a) args;
  List.sort_uniq String.compare !acc

(* ------------------------------------------------------------------ *)
(* Priced crypto/storage primitives, which handler files reach only
   through [Priced] (Discipline R10).  Matched by the module's *last*
   component, so [Sbft_crypto.Threshold.verify] resolves too. *)

let priced =
  [
    ("Threshold", "share_sign");
    ("Threshold", "share_sign_h");
    ("Threshold", "verify");
    ("Threshold", "verify_h");
    ("Threshold", "share_verify");
    ("Threshold", "share_verify_cached_h");
    ("Threshold", "combine");
    ("Threshold", "combine_verified");
    ("Threshold", "combine_verified_h");
    ("Sha256", "digest");
    ("Merkle", "build");
    ("Merkle", "prove");
    ("Merkle", "verify");
    ("Wal", "append");
    ("Wal", "sync");
    ("Pki", "sign");
    ("Pki", "verify");
    ("Keys", "verify_request");
    ("View_change", "validate_message");
    ("View_change", "verify_cert");
    ("Auth_store", "verify_op_proof");
    ("Auth_store", "verify_query_proof");
  ]

let iter_modules = [ "List"; "Array"; "Seq"; "Hashtbl"; "Det" ]

let iter_names =
  [
    "iter"; "iteri"; "map"; "mapi"; "fold_left"; "fold"; "filter";
    "filter_map"; "concat_map"; "for_all"; "exists"; "iter_sorted";
  ]

let is_iter_combinator m f =
  List.exists (String.equal m) iter_modules
  && List.exists (String.equal f) iter_names

(* ------------------------------------------------------------------ *)
(* The walker *)

type wctx = { iter_vars : string list; guard_names : string list }

type wstate = {
  events : einfo list ref;  (* reversed; List.rev at the end *)
  locals : (string, unit) Hashtbl.t;
}

let emit st (c : wctx) ev line =
  st.events :=
    { ev; line; iter_vars = c.iter_vars; guard_names = c.guard_names } :: !(st.events)

let rec walk st (c : wctx) (e : Parsetree.expression) =
  let line = e.pexp_loc.Location.loc_start.Lexing.pos_lnum in
  match e.pexp_desc with
  | Pexp_apply (head, args) -> apply st c line e.pexp_attributes head args
  | Pexp_ifthenelse (cond, e_then, e_else) ->
      walk st c cond;
      let g = { c with guard_names = c.guard_names @ cond_names cond } in
      walk st g e_then;
      Option.iter (walk st g) e_else
  | Pexp_match (scrut, cases) | Pexp_try (scrut, cases) ->
      walk st c scrut;
      walk_cases st c cases
  | Pexp_function cases -> walk_cases st c cases
  | Pexp_fun (_, default, _, body) ->
      Option.iter (walk st c) default;
      walk st c body
  | Pexp_let (_, vbs, body) ->
      List.iter
        (fun (vb : Parsetree.value_binding) -> walk st c vb.pvb_expr)
        vbs;
      walk st c body
  | Pexp_sequence (e1, e2) ->
      walk st c e1;
      walk st c e2
  | Pexp_for (_, e1, e2, _, body) ->
      walk st c e1;
      walk st c e2;
      walk st c body
  | Pexp_while (cond, body) ->
      walk st c cond;
      walk st { c with guard_names = c.guard_names @ cond_names cond } body
  | _ -> walk_children st c e

and walk_cases st c cases =
  List.iter
    (fun (case : Parsetree.case) ->
      let g =
        match case.pc_guard with
        | Some ge ->
            walk st c ge;
            c.guard_names @ cond_names ge
        | None -> c.guard_names
      in
      walk st { c with guard_names = g } case.pc_rhs)
    cases

and walk_children st c e =
  let it =
    {
      Ast_iterator.default_iterator with
      expr = (fun _ ce -> walk st c ce);
    }
  in
  Ast_iterator.default_iterator.expr it e

and walk_args st c args = List.iter (fun (_, a) -> walk st c a) args

and apply st c line attrs head args =
  match head_name head with
  | Some (None, op) when List.exists (String.equal op) cmp_ops -> (
      (match args with
      | [ (_, lhs); (_, rhs) ] -> (
          (* Normalize to [count op thresh]: the threshold side is
             whichever operand extracts (right preferred — the
             protocol writes [Hashtbl.length x >= threshold]). *)
          match tside_of_expr rhs with
          | Some thresh ->
              emit st c
                (Threshold_cmp { op; thresh; annot = adjust_annot attrs })
                line
          | None -> (
              match tside_of_expr lhs with
              | Some thresh ->
                  emit st c
                    (Threshold_cmp
                       { op = flip_op op; thresh; annot = adjust_annot attrs })
                    line
              | None -> ()))
      | _ -> ());
      walk_args st c args)
  | Some (_, "check_quorum") ->
      emit st c
        (San_check (Option.value (san_kind_of_args args) ~default:"<unknown>"))
        line;
      walk_args st c args
  | Some (_, (("set_timer" | "set_replica_timer") as callee)) ->
      emit st c
        (Timer_arm { callee; cb_guards = lambda_guard_names args })
        line;
      walk_args st c args
  | Some (_, "wal_log") ->
      let ctor = Option.value (first_construct args) ~default:"<unknown>" in
      emit st c (Log ctor) line;
      walk_args st c args
  | Some (_, "wal_sync") ->
      emit st c Sync line;
      walk_args st c args
  | Some (_, f) when String.equal f "send" || String.starts_with ~prefix:"broadcast" f ->
      emit st c
        (Send
           {
             ctor = first_construct args;
             bcast = String.starts_with ~prefix:"broadcast" f;
           })
        line;
      walk_args st c args
  | Some (_, "charge") -> emit st c Charge line
  | Some (Some m, f) when List.mem (m, f) priced ->
      emit st c (Crypto (m ^ "." ^ f)) line;
      walk_args st c args
  | Some (Some m, f) when is_iter_combinator m f ->
      let lambdas, rest = List.partition (fun (_, a) -> is_lambda a) args in
      let extra = List.concat_map (fun (_, a) -> expr_idents a) rest in
      let c_lam =
        {
          c with
          iter_vars = List.sort_uniq String.compare (c.iter_vars @ extra);
        }
      in
      List.iter (fun (_, a) -> walk st c_lam a) lambdas;
      List.iter (fun (_, a) -> walk st c a) rest
  | Some (None, f) when Hashtbl.mem st.locals f ->
      emit st c (Call f) line;
      walk_args st c args
  | _ ->
      walk st c head;
      walk_args st c args

(* ------------------------------------------------------------------ *)
(* File summaries *)

let rec peel_params acc (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_fun (_, _, pat, body) -> peel_params (acc @ pat_var_names pat) body
  | Pexp_newtype (_, body) -> peel_params acc body
  | Pexp_constraint (e, _) -> peel_params acc e
  | _ -> (acc, e)

(* Constructor names matched anywhere inside [on_message]'s patterns;
   intersected with the message universe by the renderer, so binder
   patterns like [Some]/[None] wash out. *)
let handled_ctors structure =
  let acc = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      pat =
        (fun it p ->
          (match p.Parsetree.ppat_desc with
          | Ppat_construct ({ txt; _ }, _) ->
              acc := Lint.last_component txt :: !acc
          | _ -> ());
          Ast_iterator.default_iterator.pat it p);
    }
  in
  List.iter
    (fun (vb : Parsetree.value_binding) ->
      match pat_var_names vb.pvb_pat with
      | [ "on_message" ] -> it.value_binding it vb
      | _ -> ())
    (Lint.structure_bindings structure);
  List.sort_uniq String.compare !acc

let summarize ~path structure =
  let bindings = Lint.structure_bindings structure in
  let locals = Hashtbl.create 64 in
  List.iter
    (fun (vb : Parsetree.value_binding) ->
      List.iter
        (fun n -> Hashtbl.replace locals n ())
        (pat_var_names vb.pvb_pat))
    bindings;
  let funcs =
    List.filter_map
      (fun (vb : Parsetree.value_binding) ->
        match pat_var_names vb.pvb_pat with
        | [ name ] ->
            let params, body = peel_params [] vb.pvb_expr in
            let st = { events = ref []; locals } in
            walk st { iter_vars = []; guard_names = [] } body;
            Some
              {
                fn_name = name;
                fn_line = vb.pvb_loc.Location.loc_start.Lexing.pos_lnum;
                fn_params = params;
                fn_events = List.rev !(st.events);
              }
        | _ -> None)
      bindings
  in
  { path; funcs; handled = handled_ctors structure }

let variant_constructors ~type_name structure =
  List.concat_map
    (fun (si : Parsetree.structure_item) ->
      match si.pstr_desc with
      | Pstr_type (_, decls) ->
          List.concat_map
            (fun (d : Parsetree.type_declaration) ->
              if String.equal d.ptype_name.txt type_name then
                match d.ptype_kind with
                | Ptype_variant ctors ->
                    List.map
                      (fun (c : Parsetree.constructor_declaration) ->
                        c.pcd_name.txt)
                      ctors
                | _ -> []
              else [])
            decls
      | _ -> [])
    structure

(* ------------------------------------------------------------------ *)
(* Call-graph closure (within one file) *)

let find_func funcs name =
  List.find_opt (fun f -> String.equal f.fn_name name) funcs

(* Events of [start] and of every local function transitively reachable
   through [Call] events.  Calls to unknown names are ignored (they are
   either stdlib or cross-module; cross-module helpers are summarized
   where they live). *)
let reachable_events funcs start =
  let rec go visited acc = function
    | [] -> List.concat (List.rev acc)
    | name :: rest ->
        if List.exists (String.equal name) visited then go visited acc rest
        else (
          match find_func funcs name with
          | None -> go (name :: visited) acc rest
          | Some f ->
              let calls =
                List.filter_map
                  (fun e -> match e.ev with Call n -> Some n | _ -> None)
                  f.fn_events
              in
              go (name :: visited) (f.fn_events :: acc) (calls @ rest))
  in
  go [] [] [ start ]

let is_handler name = String.starts_with ~prefix:"on_" name

(* ------------------------------------------------------------------ *)
(* Rendering the @msgflow artifact *)

let field buf name vals =
  Buffer.add_string buf
    (Printf.sprintf "%s %s\n" name
       (match vals with [] -> "-" | vs -> String.concat " " vs))

let render sections =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    "# SBFT message-flow graph: for each protocol section, which message\n\
     # constructors are handled and sent, and per handler (resolved through\n\
     # local helper calls) which messages it can emit and which WAL records\n\
     # it logs.  Regenerated by `dune build @msgflow`; after a vetted\n\
     # protocol change, update the committed spec with `dune promote`.\n";
  List.iter
    (fun sec ->
      Buffer.add_string buf
        (Printf.sprintf "\n== %s (%d messages) ==\n" sec.sec_name
           (List.length sec.sec_universe));
      let mem x xs = List.exists (String.equal x) xs in
      let handled_all =
        List.sort_uniq String.compare
          (List.concat_map (fun fl -> fl.handled) sec.sec_files)
      in
      let handled = List.filter (fun c -> mem c handled_all) sec.sec_universe in
      let unhandled =
        List.filter (fun c -> not (mem c handled)) sec.sec_universe
      in
      let sent_all =
        List.concat_map
          (fun fl ->
            List.concat_map
              (fun f ->
                List.filter_map
                  (fun e ->
                    match e.ev with
                    | Send { ctor = Some ctor; _ } -> Some ctor
                    | _ -> None)
                  f.fn_events)
              fl.funcs)
          sec.sec_files
        |> List.sort_uniq String.compare
      in
      let sent = List.filter (fun c -> mem c sent_all) sec.sec_universe in
      let never = List.filter (fun c -> not (mem c sent)) sec.sec_universe in
      field buf "handled:" handled;
      field buf "unhandled:" unhandled;
      field buf "sent:" sent;
      field buf "never-sent:" never;
      List.iter
        (fun fl ->
          let handlers =
            List.filter (fun f -> is_handler f.fn_name) fl.funcs
            |> List.sort (fun a b -> String.compare a.fn_name b.fn_name)
          in
          match handlers with
          | [] -> ()
          | _ ->
              Buffer.add_string buf (Printf.sprintf "\n-- %s --\n" fl.path);
              List.iter
                (fun h ->
                  let evs = reachable_events fl.funcs h.fn_name in
                  let sends =
                    List.filter_map
                      (fun e ->
                        match e.ev with
                        | Send { ctor = Some ctor; _ } -> Some ctor
                        | Send { ctor = None; _ } -> Some "<unresolved>"
                        | _ -> None)
                      evs
                    |> List.sort_uniq String.compare
                  in
                  let logs =
                    List.filter_map
                      (fun e -> match e.ev with Log r -> Some r | _ -> None)
                      evs
                    |> List.sort_uniq String.compare
                  in
                  Buffer.add_string buf (Printf.sprintf "%s:\n" h.fn_name);
                  field buf "  sends" sends;
                  field buf "  logs " logs)
                handlers)
        (List.sort
           (fun a b -> String.compare a.path b.path)
           sec.sec_files))
    sections;
  Buffer.contents buf
