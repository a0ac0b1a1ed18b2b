(* R16, no export without a user: a cross-unit pass over the typed
   trees dune writes (.cmti for the exports, .cmt for the uses).

   Paths are string lists.  A global module is its unit name
   ("Sbft_core", "Sbft_core__Config"); a local module ident is keyed by
   the file that binds it and its unique name ("bin/x.ml#Config_12"),
   so idents of different units never collide.  Module aliases
   ([module Config = Sbft_core.Config], and the [module Config =
   Sbft_core__Config] lines of dune's wrapper modules) are prefix
   rewrites applied until none matches, so [Lib.Mod.v], [Lib__Mod.v]
   and [Config.v] all reach the key ["Lib__Mod"; "v"]. *)

type export = {
  path : string list;
  file : string;
  line : int;
  heading : string option;
}

type use = {
  target : string list;
  whole : bool;
  from : string;
}

(* ------------------------------------------------------------------ *)
(* The decision *)

let test_hook_heading title =
  String.map
    (fun ch ->
      match ch with
      | 'a' .. 'z' | '0' .. '9' -> ch
      | 'A' .. 'Z' -> Char.lowercase_ascii ch
      | _ -> ' ')
    title
  |> String.split_on_char ' '
  |> List.exists (fun w -> String.equal w "test" || String.equal w "tests")

let key path = String.concat "." path

(* Every split of [path] into a non-empty prefix and the rest, longest
   prefix first. *)
let splits path =
  let rec go prefix acc = function
    | [] -> acc
    | x :: rest ->
        let prefix = x :: prefix in
        go prefix ((List.rev prefix, rest) :: acc) rest
  in
  go [] [] path

(* Rewrite the longest aliased prefix until no alias applies; the fuel
   only guards against an alias cycle, which the compiler rejects. *)
let resolve aliases path =
  let rec go fuel path =
    let rewrite =
      List.find_map
        (fun (prefix, rest) ->
          Option.map (fun target -> target @ rest) (Hashtbl.find_opt aliases (key prefix)))
        (splits path)
    in
    match rewrite with Some path when fuel > 0 -> go (fuel - 1) path | _ -> path
  in
  go 64 path

(* "Sbft_core__Config" -> "Config": the name a reader of the .mli uses. *)
let display path =
  let short unit_name =
    let rec from i =
      if i < 1 then unit_name
      else if Char.equal unit_name.[i] '_' && Char.equal unit_name.[i - 1] '_' then
        String.sub unit_name (i + 1) (String.length unit_name - i - 1)
      else from (i - 1)
    in
    from (String.length unit_name - 1)
  in
  match path with [] -> "" | u :: rest -> String.concat "." (short u :: rest)

let findings ~aliases ~exports ~uses =
  let table = Hashtbl.create 64 in
  List.iter (fun (from, target) -> Hashtbl.replace table (key from) target) aliases;
  let single = Hashtbl.create 4096 and whole = Hashtbl.create 64 in
  List.iter
    (fun u -> Hashtbl.add (if u.whole then whole else single) (key (resolve table u.target)) u.from)
    uses;
  let finding e =
    let own = Filename.remove_extension e.file ^ ".ml" in
    let froms =
      Hashtbl.find_all single (key e.path)
      @ List.concat_map
          (fun (prefix, rest) ->
            match rest with [] -> [] | _ :: _ -> Hashtbl.find_all whole (key prefix))
          (splits e.path)
      |> List.filter (fun f -> not (String.equal f own))
      |> List.sort_uniq String.compare
    in
    let message =
      match List.partition (String.starts_with ~prefix:"test/") froms with
      | [], [] -> Some "is exported but no other unit uses it; delete it"
      | tests, [] ->
          Some
            (Printf.sprintf
               "is used only by %s; move it under a test-hook heading or drop it from the \
                interface"
               (String.concat ", " tests))
      | _, _ :: _ -> None
    in
    Option.map
      (fun m ->
        { Lint.rule = "R16"; file = e.file; line = e.line; message = display e.path ^ " " ^ m })
      message
  in
  List.filter_map
    (fun e ->
      match e.heading with
      | Some h when test_hook_heading h -> None
      | Some _ | None -> finding e)
    exports

(* ------------------------------------------------------------------ *)
(* Typed trees *)

let rec path_of ~from (p : Path.t) =
  match p with
  | Pident id when Ident.global id -> [ Ident.name id ]
  | Pident id -> [ from ^ "#" ^ Ident.unique_name id ]
  | Pdot (p, s) -> path_of ~from p @ [ s ]
  | Papply (p, _) | Pextra_ty (p, _) -> path_of ~from p

(* The title of a [(** {1 ...} *)] or [(** {2 ...} *)] heading. *)
let heading_of (attr : Parsetree.attribute) =
  match (attr.attr_name.txt, attr.attr_payload) with
  | ( "ocaml.text",
      PStr
        [
          {
            pstr_desc =
              Pstr_eval ({ pexp_desc = Pexp_constant (Pconst_string (text, _, _)); _ }, _);
            _;
          };
        ] ) -> (
      let text = String.trim text in
      match String.index_opt text '}' with
      | Some close
        when String.length text > 2
             && Char.equal text.[0] '{'
             && (Char.equal text.[1] '1' || Char.equal text.[1] '2') ->
          Some (String.trim (String.sub text 2 (close - 2)))
      | Some _ | None -> None)
  | _ -> None

let rec signature_exports ~file ~prefix ~heading (sg : Typedtree.signature) =
  let step (heading, acc) (item : Typedtree.signature_item) =
    match item.sig_desc with
    | Tsig_attribute attr -> (
        match heading_of attr with Some h -> (Some h, acc) | None -> (heading, acc))
    | Tsig_value vd ->
        ( heading,
          {
            path = prefix @ [ vd.val_name.txt ];
            file;
            line = vd.val_loc.loc_start.pos_lnum;
            heading;
          }
          :: acc )
    | Tsig_module { md_id = Some id; md_type = { mty_desc = Tmty_signature sub; _ }; _ } ->
        let inner = signature_exports ~file ~prefix:(prefix @ [ Ident.name id ]) ~heading sub in
        (heading, List.rev_append inner acc)
    | _ -> (heading, acc)
  in
  List.rev (snd (List.fold_left step (heading, []) sg.sig_items))

(* Every value path [str] references, and the module aliases it binds.
   A module used other than by alias or [open] (a functor argument, a
   first-class [(module M)], an [include]) uses its whole signature. *)
let structure_uses ~modname ~from (str : Typedtree.structure) =
  let aliases = ref [] and uses = ref [] in
  let path_of = path_of ~from in
  let alias id p = aliases := ([ from ^ "#" ^ Ident.unique_name id ], path_of p) :: !aliases in
  let use ~whole p = uses := { target = path_of p; whole; from } :: !uses in
  List.iter
    (fun (item : Typedtree.structure_item) ->
      match item.str_desc with
      | Tstr_module { mb_id = Some id; mb_expr = { mod_desc = Tmod_ident (p, _); _ }; _ } ->
          aliases := ([ modname; Ident.name id ], path_of p) :: !aliases
      | _ -> ())
    str.str_items;
  let open Tast_iterator in
  let expr sub (e : Typedtree.expression) =
    match e.exp_desc with
    | Texp_ident (p, _, _) -> use ~whole:false p
    | Texp_letmodule (Some id, _, _, { mod_desc = Tmod_ident (p, _); _ }, body) ->
        alias id p;
        sub.expr sub body
    | Texp_letop { let_; ands; _ } ->
        List.iter (fun (b : Typedtree.binding_op) -> use ~whole:false b.bop_op_path) (let_ :: ands);
        default_iterator.expr sub e
    | _ -> default_iterator.expr sub e
  in
  let module_binding sub (mb : Typedtree.module_binding) =
    match mb with
    | { mb_id = Some id; mb_expr = { mod_desc = Tmod_ident (p, _); _ }; _ } -> alias id p
    | _ -> default_iterator.module_binding sub mb
  in
  let open_declaration sub (od : Typedtree.open_declaration) =
    match od.open_expr.mod_desc with
    | Tmod_ident _ -> ()
    | _ -> default_iterator.open_declaration sub od
  in
  let module_expr sub (me : Typedtree.module_expr) =
    (match me.mod_desc with Tmod_ident (p, _) -> use ~whole:true p | _ -> ());
    default_iterator.module_expr sub me
  in
  let it = { default_iterator with expr; module_binding; open_declaration; module_expr } in
  it.structure it str;
  (!aliases, !uses)

let user_dirs = [ "lib"; "bin"; "bench"; "examples"; "perfbench"; "test" ]

let typed_tree_files build =
  let rec walk acc path =
    if Sys.is_directory path then
      Array.fold_left
        (fun acc entry -> walk acc (Filename.concat path entry))
        acc (Sys.readdir path)
    else if Filename.check_suffix path ".cmt" || Filename.check_suffix path ".cmti" then path :: acc
    else acc
  in
  List.fold_left
    (fun acc dir ->
      let dir = Filename.concat build dir in
      if Sys.file_exists dir then walk acc dir else acc)
    [] user_dirs
  |> List.sort String.compare

let check_interfaces ~build ~mlis ~mls =
  let interfaces = Hashtbl.create 128 and digests = Hashtbl.create 256 in
  let aliases, uses =
    List.fold_left
      (fun (aliases, uses) file ->
        let info = Cmt_format.read_cmt file in
        let source = Option.map Lint.normalize info.cmt_sourcefile in
        Option.iter (fun s -> Hashtbl.replace digests s info.cmt_source_digest) source;
        match (info.cmt_annots, source) with
        | Interface sg, Some source ->
            Hashtbl.replace interfaces source (info.cmt_modname, sg);
            (aliases, uses)
        | Implementation str, Some source ->
            let a, u = structure_uses ~modname:info.cmt_modname ~from:source str in
            (List.rev_append a aliases, List.rev_append u uses)
        | _ -> (aliases, uses))
      ([], []) (typed_tree_files build)
  in
  (* A source whose typed tree is missing or older than the file would
     silently drop out of the rule (an export unchecked, a user
     unseen): the caller must refuse to run. *)
  let fresh file =
    match Hashtbl.find_opt digests file with
    | Some (Some digest) -> Digest.equal digest (Digest.file file)
    | Some None | None -> false
  in
  match List.filter (fun file -> not (fresh file)) (mlis @ mls) with
  | _ :: _ as stale -> Error stale
  | [] ->
      let exports =
        List.concat_map
          (fun file ->
            match Hashtbl.find_opt interfaces file with
            | Some (modname, sg) -> signature_exports ~file ~prefix:[ modname ] ~heading:None sg
            | None -> [])
          mlis
      in
      Ok (findings ~aliases ~exports ~uses)

let check ~build ~mlis ~mls =
  match mlis with
  | [] -> Ok []
  | _ :: _ -> check_interfaces ~build ~mlis ~mls
