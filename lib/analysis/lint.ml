type finding = {
  rule : string;
  file : string;
  line : int;
  message : string;
}

let pp_finding f = Printf.sprintf "%s:%d: [%s] %s" f.file f.line f.rule f.message

let by_line_rule a b =
  match Int.compare a.line b.line with
  | 0 -> String.compare a.rule b.rule
  | n -> n

let sort_findings findings = List.sort by_line_rule findings

let dedup findings =
  List.sort_uniq
    (fun a b ->
      match by_line_rule a b with
      | 0 -> String.compare a.message b.message
      | n -> n)
    findings

(* ------------------------------------------------------------------ *)
(* Path scoping *)

let normalize path =
  let path =
    if String.length path > 2 && String.equal (String.sub path 0 2) "./" then
      String.sub path 2 (String.length path - 2)
    else path
  in
  String.map (fun ch -> if Char.equal ch '\\' then '/' else ch) path

let under prefixes path =
  List.exists (fun prefix -> String.starts_with ~prefix path) prefixes

let protocol_scope = under [ "lib/core/"; "lib/pbft/"; "lib/crypto/" ]
let config_file path = String.equal path "lib/core/config.ml"
let lib_scope = under [ "lib/" ]

(* Files blessed to use the constructs the determinism rules ban:
   [lib/sim/rng.ml] is the one home for randomness, [lib/sim/det.ml]
   wraps hash tables in sorted views. *)
let rng_file path = String.equal path "lib/sim/rng.ml"
let det_file path = String.equal path "lib/sim/det.ml"

(* R6 and R9-R15 run over the message-handler layers only: the modules
   that turn network input into protocol state. *)
let handler_scope = under [ "lib/core/"; "lib/pbft/" ]

(* ------------------------------------------------------------------ *)
(* Source files *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Skip hidden and build directories (.objs, _build, ...) and the lint
   self-test corpus (linted by test_lint against its own golden file,
   where the deliberate positives belong). *)
let skip_entry name =
  String.length name = 0
  || Char.equal name.[0] '.'
  || Char.equal name.[0] '_'
  || String.equal name "lint_fixtures"

let source_files ~suffix roots =
  let rec walk acc path =
    if Sys.is_directory path then
      Sys.readdir path |> Array.to_list
      |> List.fold_left
           (fun acc entry ->
             if skip_entry entry then acc else walk acc (Filename.concat path entry))
           acc
    else if Filename.check_suffix path suffix then normalize path :: acc
    else acc
  in
  List.sort String.compare (List.fold_left walk [] roots)

let ml_files = source_files ~suffix:".ml"
let mli_files = source_files ~suffix:".mli"

let line_of (loc : Location.t) = loc.loc_start.pos_lnum

let parse ~path source =
  let path = normalize path in
  let lexbuf = Lexing.from_string source in
  Lexing.set_filename lexbuf path;
  match Parse.implementation lexbuf with
  | structure -> Ok structure
  | exception Syntaxerr.Error _ ->
      Error { rule = "parse"; file = path; line = 1; message = "file does not parse" }
  | exception Lexer.Error (_, loc) ->
      Error
        { rule = "parse"; file = path; line = line_of loc; message = "file does not lex" }

let structure_bindings structure =
  List.concat_map
    (fun (si : Parsetree.structure_item) ->
      match si.pstr_desc with Pstr_value (_, vbs) -> vbs | _ -> [])
    structure

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.equal (String.sub s i m) sub || go (i + 1)) in
  m = 0 || go 0

(* ------------------------------------------------------------------ *)
(* AST predicates *)

open Parsetree

let eq_operator : Longident.t -> bool = function
  | Lident ("=" | "<>") -> true
  | Ldot (Lident "Stdlib", ("=" | "<>")) -> true
  | _ -> false

let polymorphic_compare : Longident.t -> bool = function
  | Lident "compare" -> true
  | Ldot (Lident "Stdlib", "compare") -> true
  | _ -> false

let hashtbl_hash : Longident.t -> bool = function
  | Ldot (Lident "Hashtbl", ("hash" | "seeded_hash")) -> true
  | Ldot (Ldot (Lident "Stdlib", "Hashtbl"), ("hash" | "seeded_hash")) -> true
  | _ -> false

(* Partial stdlib functions and their total replacements (R2). *)
let partial_functions =
  [
    ("List", "hd", "List.nth_opt xs 0 / match");
    ("List", "nth", "List.nth_opt");
    ("List", "assoc", "List.assoc_opt");
    ("List", "find", "List.find_opt");
    ("Option", "get", "pattern matching / Option.value");
    ("Hashtbl", "find", "Hashtbl.find_opt");
  ]

let partial_function : Longident.t -> (string * string * string) option = function
  | Ldot (Lident m, f) | Ldot (Ldot (Lident "Stdlib", m), f) ->
      List.find_opt
        (fun (m', f', _) -> String.equal m m' && String.equal f f')
        partial_functions
  | _ -> None

(* Operands whose polymorphic comparison is a tag-only check: constant
   literals and nullary constructors ([None], [true], [[]], variant
   tags...).  Comparing anything else structurally is what R1 bans. *)
let constant_operand e =
  match e.pexp_desc with
  | Pexp_constant (Pconst_integer _ | Pconst_char _) -> true
  | Pexp_construct (_, None) -> true
  | Pexp_variant (_, None) -> true
  | _ -> false

let int_literal e =
  match e.pexp_desc with Pexp_constant (Pconst_integer _) -> true | _ -> false

(* An [f]- or [c]-valued expression for the quorum-literal rule: a bare
   identifier or a record field named [f] or [c]. *)
let fault_parameter e =
  match e.pexp_desc with
  | Pexp_ident { txt = Lident ("f" | "c"); _ } -> true
  | Pexp_field (_, { txt = Lident ("f" | "c") | Ldot (_, ("f" | "c")); _ }) -> true
  | _ -> false

let catch_all_case (case : case) =
  match (case.pc_lhs.ppat_desc, case.pc_guard) with
  | Ppat_any, None -> true
  | Ppat_exception { ppat_desc = Ppat_any; _ }, None -> true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* R7: determinism predicates *)

let rec last_component : Longident.t -> string = function
  | Lident f -> f
  | Ldot (_, f) -> f
  | Lapply (_, l) -> last_component l

let random_ident : Longident.t -> bool = function
  | Ldot (Lident "Random", _)
  | Ldot (Ldot (Lident "Stdlib", "Random"), _) -> true
  | _ -> false

let unix_ident : Longident.t -> bool = function
  | Lident "Unix" | Ldot (Lident "Unix", _) -> true
  | _ -> false

let host_clock_ident : Longident.t -> bool = function
  | Ldot (Lident "Sys", "time")
  | Ldot (Ldot (Lident "Stdlib", "Sys"), "time") -> true
  | _ -> false

let physical_eq : Longident.t -> bool = function
  | Lident ("==" | "!=") -> true
  | Ldot (Lident "Stdlib", ("==" | "!=")) -> true
  | _ -> false

(* Unordered consumers of a hash table: iteration order is unspecified,
   so results must pass through an explicit sort (or live in det.ml). *)
let hashtbl_order_ident : Longident.t -> bool = function
  | Ldot (Lident "Hashtbl", ("iter" | "fold" | "to_seq" | "to_seq_keys" | "to_seq_values"))
  | Ldot
      ( Ldot (Lident "Stdlib", "Hashtbl"),
        ("iter" | "fold" | "to_seq" | "to_seq_keys" | "to_seq_values") ) ->
      true
  | _ -> false

let hashtbl_fold_ident : Longident.t -> bool = function
  | Ldot (Lident "Hashtbl", "fold")
  | Ldot (Ldot (Lident "Stdlib", "Hashtbl"), "fold") -> true
  | _ -> false

let list_sort_ident : Longident.t -> bool = function
  | Ldot (Lident "List", ("sort" | "sort_uniq" | "stable_sort" | "fast_sort")) -> true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* R6: authenticate-before-use taint analysis *)

(* The R6 configuration.  Top-level functions whose name starts with a
   source prefix are network-receive entry points; their parameters are
   tainted. *)
let source_prefixes = [ "on_" ]

(* Adversary observation accessors: the schedule fuzzer's adaptive
   attacker reads protocol state through the obs_* surface
   (Replica.obs_view, obs_frontier, ...), so anything derived from an
   obs_* call is attacker-visible by construction.  Letting it reach a
   state-mutating sink would mean protocol behavior depends on the
   attacker's window into it — taint the results wherever they appear,
   not only inside on_* handlers. *)
let source_call_prefixes = [ "obs_" ]

(* Scalar routing / ordering fields and the handler's own state.  These
   are covered by the link-layer MAC every replica checks on receipt
   (Cost_model.message_auth_check / rsa_verify charged in on_message):
   the sender's *own* claims need no further crypto, only content
   asserted on behalf of third parties does. *)
let implicit_params =
  [ "t"; "ctx"; "self"; "env"; "src"; "seq"; "view"; "replica";
    "client"; "timestamp"; "index"; "qid"; "upto"; "ls" ]

(* Matched on the last path component: a call clears taint from its
   arguments. *)
let sanitizers =
  [ "verify"; "verify_h"; "verify_request"; "share_verify";
    "share_verify_cached"; "validate_message"; "verify_op_proof";
    "verify_query_proof"; "verify_requests"; "verify_cert"; "validate_view_changes";
    "validate_new_view"; "verify_execute_ack"; "verify_query_resp";
    (* Optimistic combine-then-verify and the staged snapshot loader
       authenticate their inputs internally: the former checks the
       combined signature (falling back to per-share identification),
       the latter installs only a digest-matching snapshot. *)
    "combine_verified"; "combine_verified_h"; "load_snapshot_checked" ]

(* State-mutating calls: exact names, then name prefixes. *)
let sink_names =
  [ "replace"; "add"; "push"; "remove"; "reset"; ":="; "execute_block";
    "load_snapshot"; "set_checkpoint" ]

let sink_prefixes = [ "send"; "broadcast"; "check_"; "record_" ]

let is_sanitizer lid = List.exists (String.equal (last_component lid)) sanitizers

let sink_kind lid =
  let name = last_component lid in
  if List.exists (String.equal name) sink_names then Some name
  else if List.exists (fun prefix -> String.starts_with ~prefix name) sink_prefixes
  then Some name
  else None

let implicit name = List.exists (String.equal name) implicit_params

(* A taint chain, most recent binding first: how the value flowed from
   a handler parameter to the point of use. *)
type chain = (string * int) list

type env = {
  tainted : (string * chain) list;
  (* Variables bound to the boolean result of a sanitizer call, mapped
     to the variables that call covered: [let ok = verify x in if ok
     then ...] clears [x]. *)
  witnesses : (string * string list) list;
}

let empty_env = { tainted = []; witnesses = [] }

let pp_chain chain =
  String.concat " <- "
    (List.map (fun (v, line) -> Printf.sprintf "%s(line %d)" v line) chain)

(* All value identifiers occurring in an expression. *)
let expr_vars e =
  let acc = ref [] in
  let open Ast_iterator in
  let iter =
    {
      default_iterator with
      expr =
        (fun self e ->
          (match e.pexp_desc with
          | Pexp_ident { txt = Lident x; _ } -> acc := x :: !acc
          | _ -> ());
          default_iterator.expr self e);
    }
  in
  iter.expr iter e;
  !acc

let contains_sanitizer e =
  let found = ref false in
  let open Ast_iterator in
  let iter =
    {
      default_iterator with
      expr =
        (fun self e ->
          (match e.pexp_desc with
          | Pexp_ident { txt; _ } when is_sanitizer txt -> found := true
          | _ -> ());
          if not !found then default_iterator.expr self e);
    }
  in
  iter.expr iter e;
  !found

(* First application of a source-call function (obs_* observation
   accessor) inside an expression, with its line: the returned value is
   a taint source in any context. *)
let source_call e =
  let found = ref None in
  let open Ast_iterator in
  let iter =
    {
      default_iterator with
      expr =
        (fun self e ->
          (match e.pexp_desc with
          | Pexp_apply ({ pexp_desc = Pexp_ident { txt; loc }; _ }, _)
            when Option.is_none !found
                 && List.exists
                      (fun prefix -> String.starts_with ~prefix (last_component txt))
                      source_call_prefixes ->
              found := Some (last_component txt, loc.loc_start.pos_lnum)
          | _ -> ());
          if Option.is_none !found then default_iterator.expr self e);
    }
  in
  iter.expr iter e;
  !found

(* Variables a guard expression authenticates.  Two shapes clear taint:
   a direct sanitizer application ([verify k ~msg x] covers every
   variable in its arguments) and a combinator whose function argument
   contains a sanitizer ([List.for_all (fun r -> verify r) reqs] covers
   [reqs]).  Boolean connectives are split so the sanitized side of
   [a && b] does not bleed into the other. *)
let rec sanitized_vars e =
  match e.pexp_desc with
  | Pexp_apply
      ({ pexp_desc = Pexp_ident { txt = Lident ("&&" | "||" | "not"); _ }; _ }, args)
    ->
      List.concat_map (fun (_, a) -> sanitized_vars a) args
  | Pexp_apply (f, args) ->
      if contains_sanitizer f || List.exists (fun (_, a) -> contains_sanitizer a) args
      then List.concat_map (fun (_, a) -> expr_vars a) args
      else List.concat_map (fun (_, a) -> sanitized_vars a) args
  | Pexp_ifthenelse (c, e1, e2) ->
      sanitized_vars c @ sanitized_vars e1
      @ (match e2 with Some e2 -> sanitized_vars e2 | None -> [])
  | Pexp_constraint (e, _) | Pexp_open (_, e) -> sanitized_vars e
  | _ -> []

(* Variables of a pattern, with the binding line. *)
let pat_vars p =
  let acc = ref [] in
  let open Ast_iterator in
  let iter =
    {
      default_iterator with
      pat =
        (fun self p ->
          (match p.ppat_desc with
          | Ppat_var { txt; loc } -> acc := (txt, loc.loc_start.pos_lnum) :: !acc
          | Ppat_alias (_, { txt; loc }) ->
              acc := (txt, loc.loc_start.pos_lnum) :: !acc
          | _ -> ());
          default_iterator.pat self p);
    }
  in
  iter.pat iter p;
  !acc

let taint_analysis ~report structure =
  (* Taint of an expression: the chain of the first tainted variable it
     mentions, unless a sanitizer appears anywhere inside (a verified
     expression is trusted wholesale — a deliberate imprecision). *)
  let taint_of env e =
    if contains_sanitizer e then None
    else
      match List.find_map (fun v -> List.assoc_opt v env.tainted) (expr_vars e) with
      | Some chain -> Some chain
      | None -> (
          match source_call e with
          | Some (name, line) -> Some [ (name, line) ]
          | None -> None)
  in
  let shadow env names =
    {
      tainted = List.filter (fun (v, _) -> not (List.mem v names)) env.tainted;
      witnesses = List.filter (fun (v, _) -> not (List.mem v names)) env.witnesses;
    }
  in
  (* Clearing [names] also clears their lineage: any variable derived
     from (or an ancestor of) a cleared variable.  Verifying
     [real_reqs = List.filter p reqs] is taken to authenticate [reqs]
     and everything hashed from it. *)
  let clear env names =
    if names = [] then env
    else begin
      let family =
        List.concat_map
          (fun v ->
            match List.assoc_opt v env.tainted with
            | Some chain -> v :: List.map fst chain
            | None -> [ v ])
          names
      in
      let cleared (v, chain) =
        List.mem v family || List.exists (fun (c, _) -> List.mem c family) chain
      in
      { env with tainted = List.filter (fun b -> not (cleared b)) env.tainted }
    end
  in
  (* Variables authenticated by a guard: direct sanitizer coverage plus
     the coverage recorded for any witness variable the guard tests. *)
  let guard_cleared env g =
    let direct = sanitized_vars g in
    let via_witness =
      List.concat_map
        (fun v ->
          match List.assoc_opt v env.witnesses with
          | Some covered -> covered
          | None -> [])
        (expr_vars g)
    in
    direct @ via_witness
  in
  let bind env pat rhs_taint ~sanitizing ~covered =
    let vars = pat_vars pat in
    let names = List.map fst vars in
    let env = shadow env names in
    let env =
      match rhs_taint with
      | None -> env
      | Some chain ->
          {
            env with
            tainted =
              List.filter_map
                (fun (v, line) ->
                  if implicit v then None
                  else Some (v, (v, line) :: chain))
                vars
              @ env.tainted;
          }
    in
    if sanitizing then
      { env with witnesses = List.map (fun (v, _) -> (v, covered)) vars @ env.witnesses }
    else env
  in
  let report_sink ~loc ~sink chain =
    report ~rule:"R6" ~loc
      (Printf.sprintf
         "unauthenticated network input reaches state-mutating call '%s' \
          (taint: %s); verify it first or vet the flow in lint.allow"
         sink (pp_chain chain))
  in
  let rec analyze env e =
    match e.pexp_desc with
    | Pexp_let (_, vbs, body) ->
        let env' =
          List.fold_left
            (fun acc vb ->
              analyze env vb.pvb_expr;
              let sanitizing = contains_sanitizer vb.pvb_expr in
              bind acc vb.pvb_pat (taint_of env vb.pvb_expr) ~sanitizing
                ~covered:(if sanitizing then sanitized_vars vb.pvb_expr else []))
            env vbs
        in
        analyze env' body
    | Pexp_fun (_, default, pat, body) ->
        Option.iter (analyze env) default;
        analyze (shadow env (List.map fst (pat_vars pat))) body
    | Pexp_function cases -> analyze_cases env None cases
    | Pexp_match (scrut, cases) | Pexp_try (scrut, cases) ->
        analyze env scrut;
        analyze_cases env (taint_of env scrut) cases
    | Pexp_ifthenelse (cond, e1, e2) ->
        analyze env cond;
        analyze (clear env (guard_cleared env cond)) e1;
        Option.iter (analyze env) e2
    | Pexp_sequence (a, b) ->
        analyze env a;
        analyze env b
    | Pexp_setfield (obj, _, v) ->
        (match taint_of env v with
        | Some chain -> report_sink ~loc:e.pexp_loc ~sink:"<- (field write)" chain
        | None -> ());
        analyze env obj;
        analyze env v
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) -> (
        (match sink_kind txt with
        | Some sink when not (is_sanitizer txt) -> (
            match List.find_map (fun (_, a) -> taint_of env a) args with
            | Some chain -> report_sink ~loc:e.pexp_loc ~sink chain
            | None -> ())
        | _ -> ());
        List.iter (fun (_, a) -> analyze env a) args)
    | Pexp_apply ({ pexp_desc = Pexp_field (obj, { txt; _ }); _ }, args) -> (
        (* t.env.send-style sinks: dispatch through a record field. *)
        (match sink_kind txt with
        | Some sink -> (
            match List.find_map (fun (_, a) -> taint_of env a) args with
            | Some chain -> report_sink ~loc:e.pexp_loc ~sink chain
            | None -> ())
        | None -> ());
        analyze env obj;
        List.iter (fun (_, a) -> analyze env a) args)
    | _ -> analyze_children env e
  and analyze_cases env scrut_taint cases =
    List.iter
      (fun (case : case) ->
        let env' =
          bind env case.pc_lhs scrut_taint ~sanitizing:false ~covered:[]
        in
        let env' =
          match case.pc_guard with
          | Some g ->
              analyze env' g;
              clear env' (guard_cleared env' g)
          | None -> env'
        in
        analyze env' case.pc_rhs)
      cases
  and analyze_children env e =
    let open Ast_iterator in
    let it = { default_iterator with expr = (fun _ c -> analyze env c) } in
    default_iterator.expr it e
  in
  (* Entry points: top-level functions whose name matches a source
     prefix.  Their parameters (minus the implicit, link-authenticated
     ones) are the taint sources. *)
  let analyze_handler name vb =
    let rec split_params env e =
      match e.pexp_desc with
      | Pexp_fun (_, default, pat, body) ->
          Option.iter (analyze empty_env) default;
          let env =
            List.fold_left
              (fun acc (v, line) ->
                if implicit v then acc
                else
                  {
                    acc with
                    tainted =
                      (v, [ (v, line) ]) :: acc.tainted;
                  })
              env (pat_vars pat)
          in
          split_params env body
      | Pexp_newtype (_, body) -> split_params env body
      | Pexp_constraint (body, _) -> split_params env body
      | _ -> analyze env e
    in
    ignore name;
    split_params empty_env vb.pvb_expr
  in
  let handle_binding vb =
    match vb.pvb_pat.ppat_desc with
    | Ppat_var { txt = name; _ }
      when List.exists (fun prefix -> String.starts_with ~prefix name) source_prefixes ->
        analyze_handler name vb
    | Ppat_var _ ->
        (* Source calls — the obs_ accessors — taint values in any
           function, so every top-level binding gets the flow analysis,
           just without the handler-parameter taint. *)
        analyze empty_env vb.pvb_expr
    | _ -> ()
  in
  List.iter
    (fun item ->
      match item.pstr_desc with
      | Pstr_value (_, vbs) -> List.iter handle_binding vbs
      | _ -> ())
    structure

(* ------------------------------------------------------------------ *)
(* The pass *)

let lint_structure ~path structure =
  let findings = ref [] in
  let report ~rule ~loc message =
    findings :=
      { rule; file = path; line = line_of loc; message }
      :: !findings
  in
  let r1 = protocol_scope path in
  let r2 = protocol_scope path in
  let r4 = not (config_file path) in
  let r7_lib = lib_scope path in
  (* Locations of [Hashtbl.fold] identifiers whose result flows straight
     into an explicit sort.  The iterator visits parents before children,
     so the set is populated before the ident itself is reached. *)
  let sort_wrapped = Hashtbl.create 8 in
  let loc_key (loc : Location.t) = (line_of loc, loc.loc_start.pos_cnum) in
  let fold_ident_loc e =
    match e.pexp_desc with
    | Pexp_ident { txt; _ } when hashtbl_fold_ident txt -> Some e.pexp_loc
    | Pexp_apply (({ pexp_desc = Pexp_ident { txt; _ }; _ } as f), _)
      when hashtbl_fold_ident txt ->
        Some f.pexp_loc
    | _ -> None
  in
  let head_is_sort e =
    match e.pexp_desc with
    | Pexp_ident { txt; _ } -> list_sort_ident txt
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) ->
        list_sort_ident txt
    | _ -> false
  in
  let mark_exempt e =
    match fold_ident_loc e with
    | Some loc -> Hashtbl.replace sort_wrapped (loc_key loc) ()
    | None -> ()
  in
  let exempt loc = Hashtbl.mem sort_wrapped (loc_key loc) in
  let open Ast_iterator in
  let iter_expr self e =
    (match e.pexp_desc with
    | Pexp_apply
        ({ pexp_desc = Pexp_ident { txt; _ }; pexp_loc; _ }, [ (_, a); (_, b) ])
      when eq_operator txt ->
        if r1 && (not (constant_operand a)) && not (constant_operand b) then
          report ~rule:"R1" ~loc:pexp_loc
            "polymorphic comparison on non-constant operands; use Int.equal, \
             String.equal, or an explicit equality for the type";
        (* Visit the operands but not the operator identifier itself,
           which would double-report. *)
        self.expr self a;
        self.expr self b
    | Pexp_ident { txt; _ } when r1 && eq_operator txt ->
        report ~rule:"R1" ~loc:e.pexp_loc
          "polymorphic comparison passed as a function; use an explicit \
           equality for the type"
    | Pexp_ident { txt; _ } when r1 && polymorphic_compare txt ->
        report ~rule:"R1" ~loc:e.pexp_loc
          "polymorphic compare; use Int.compare, String.compare, or a \
           dedicated comparison function"
    | Pexp_ident { txt; _ } when r1 && hashtbl_hash txt ->
        report ~rule:"R1" ~loc:e.pexp_loc
          "Hashtbl.hash on protocol values; define an explicit hash over \
           the identifying fields"
    (* R7 exemption: a fold consumed by an explicit sort is ordered.
       Three spellings: [List.sort cmp (fold ...)], [fold ... |> List.sort
       cmp], and [List.sort cmp @@ fold ...]. *)
    | Pexp_apply
        ({ pexp_desc = Pexp_ident { txt = Lident "|>"; _ }; _ },
         [ (_, lhs); (_, rhs) ])
      when head_is_sort rhs ->
        mark_exempt lhs
    | Pexp_apply
        ({ pexp_desc = Pexp_ident { txt = Lident "@@"; _ }; _ },
         [ (_, lhs); (_, rhs) ])
      when head_is_sort lhs ->
        mark_exempt rhs
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args)
      when list_sort_ident txt ->
        List.iter (fun (_, a) -> mark_exempt a) args
    | Pexp_ident { txt; _ } when random_ident txt && not (rng_file path) ->
        report ~rule:"R7" ~loc:e.pexp_loc
          "Random.* outside lib/sim/rng.ml breaks replayability; thread an \
           Rng.t derived from the scenario seed"
    | Pexp_ident { txt; _ } when r7_lib && unix_ident txt ->
        report ~rule:"R7" ~loc:e.pexp_loc
          "Unix.* in lib/ reads host state; the simulator must be the only \
           source of time and I/O"
    | Pexp_ident { txt; _ } when r7_lib && host_clock_ident txt ->
        report ~rule:"R7" ~loc:e.pexp_loc
          "Sys.time reads the host clock; use the engine's virtual time"
    | Pexp_ident { txt; _ } when r1 && physical_eq txt ->
        report ~rule:"R7" ~loc:e.pexp_loc
          "physical equality on protocol values is representation-dependent; \
           use a structural equality for the type"
    | Pexp_ident { txt; _ }
      when r7_lib && (not (det_file path)) && hashtbl_order_ident txt
           && not (exempt e.pexp_loc) ->
        report ~rule:"R7" ~loc:e.pexp_loc
          "unordered Hashtbl traversal; materialize and List.sort by a \
           protocol key (or use Det.sorted_bindings)"
    | Pexp_ident { txt; _ } when r2 ->
        (match partial_function txt with
        | Some (m, f, instead) ->
            report ~rule:"R2" ~loc:e.pexp_loc
              (Printf.sprintf "partial function %s.%s in protocol code; use %s"
                 m f instead)
        | None -> ())
    | Pexp_try (_, cases) ->
        List.iter
          (fun case ->
            if catch_all_case case then
              report ~rule:"R3" ~loc:case.pc_lhs.ppat_loc
                "catch-all exception handler swallows every failure; match \
                 the specific exceptions instead")
          cases
    | Pexp_match (_, cases) ->
        List.iter
          (fun (case : case) ->
            match case.pc_lhs.ppat_desc with
            | Ppat_exception { ppat_desc = Ppat_any; _ } when Option.is_none case.pc_guard ->
                report ~rule:"R3" ~loc:case.pc_lhs.ppat_loc
                  "catch-all exception case swallows every failure; match \
                   the specific exceptions instead"
            | _ -> ())
          cases
    | Pexp_apply
        ({ pexp_desc = Pexp_ident { txt = Lident "*"; _ }; pexp_loc; _ },
         [ (_, a); (_, b) ])
      when r4 && ((int_literal a && fault_parameter b)
                 || (fault_parameter a && int_literal b)) ->
        report ~rule:"R4" ~loc:pexp_loc
          "quorum arithmetic over f/c outside Config; quorum sizes must \
           flow from Config.n / Config.*_threshold"
    | _ -> ());
    match e.pexp_desc with
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, [ _; _ ])
      when eq_operator txt ->
        () (* operands already visited above *)
    | _ -> default_iterator.expr self e
  in
  let iterator = { default_iterator with expr = iter_expr } in
  iterator.structure iterator structure;
  if handler_scope path then taint_analysis ~report structure;
  sort_findings !findings

let missing_mli ~path ~mli_exists =
  let path = normalize path in
  if mli_exists || not (lib_scope path) then None
  else
    Some
      {
        rule = "R5";
        file = path;
        line = 1;
        message =
          "module has no .mli; every lib/ module must declare its interface";
      }

(* ------------------------------------------------------------------ *)
(* Allowlist *)

module Allow = struct
  type entry = { a_rule : string; a_file : string; a_line : int option }
  type t = entry list

  let empty = []

  let parse_line line =
    let line =
      match String.index_opt line '#' with
      | Some i -> String.sub line 0 i
      | None -> line
    in
    match String.split_on_char ' ' (String.trim line)
          |> List.filter (fun s -> not (String.equal s ""))
    with
    | [ rule; target ] ->
        let a_file, a_line =
          match String.rindex_opt target ':' with
          | Some i -> (
              let file = String.sub target 0 i in
              let ln = String.sub target (i + 1) (String.length target - i - 1) in
              match int_of_string_opt ln with
              | Some n -> (file, Some n)
              | None -> (target, None))
          | None -> (target, None)
        in
        Some { a_rule = rule; a_file = normalize a_file; a_line }
    | _ -> None

  let parse contents =
    String.split_on_char '\n' contents |> List.filter_map parse_line

  let entry_matches e (f : finding) =
    (String.equal e.a_rule "*" || String.equal e.a_rule f.rule)
    && String.equal e.a_file f.file
    && match e.a_line with None -> true | Some l -> Int.equal l f.line

  let is_allowed t f = List.exists (fun e -> entry_matches e f) t

  let render e =
    match e.a_line with
    | None -> Printf.sprintf "%s %s" e.a_rule e.a_file
    | Some l -> Printf.sprintf "%s %s:%d" e.a_rule e.a_file l

  let unused t findings =
    List.filter_map
      (fun e ->
        if List.exists (entry_matches e) findings then None else Some (render e))
      t
end

let filter allow findings =
  List.partition (fun f -> not (Allow.is_allowed allow f)) findings

let exit_code kept = match kept with [] -> 0 | _ -> 1
