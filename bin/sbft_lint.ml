(* Driver for the sbft lint pass: walks the given source trees, parses
   each .ml file once and runs every rule on it through
   Discipline.check_file (R1-R7 per-function, R5, R9-R11 protocol
   discipline with R10 charge by construction, R12-R15 quorum
   soundness), runs Exports.check over the
   lib/ interfaces (R16, no export without a user, read from the
   .cmti/.cmt typed trees under _build/default, or under the current
   directory when it is the build tree itself), applies the
   allowlist, prints the surviving findings, and exits non-zero when
   any remain.  Stale allowlist entries are hard errors; a listed
   directory that does not exist, or a linted source without an
   up-to-date typed tree while there are lib/ interfaces to check,
   exits 2.  --json FILE also emits a machine-readable report;
   --obligations FILE writes the R12 quorum obligation report CI
   uploads; under GITHUB_ACTIONS findings are echoed as workflow
   annotations.  Wired into the build as [dune build @lint] (and into
   [dune runtest]). *)

module Lint = Sbft_analysis.Lint
module Discipline = Sbft_analysis.Discipline
module Exports = Sbft_analysis.Exports
module Json = Sbft_harness.Report.Json

let usage () =
  prerr_endline
    "usage: sbft_lint [--root DIR] [--allow FILE] [--json FILE]\n\
    \                 [--obligations FILE] [DIR ...]\n\
     Lints every .ml under the given directories\n\
     (default: lib bin bench test examples perfbench).";
  exit 2

let json_report ~files ~kept ~allowed ~stale =
  Json.Obj
    [
      ("schema", Json.Str "sbft-lint-v2");
      ("files", Json.Num (float_of_int files));
      ( "findings",
        Json.Arr
          (List.map
             (fun (f : Lint.finding) ->
               Json.Obj
                 [
                   ("rule", Json.Str f.Lint.rule);
                   ("severity", Json.Str "error");
                   ("file", Json.Str f.Lint.file);
                   ("line", Json.Num (float_of_int f.Lint.line));
                   ("message", Json.Str f.Lint.message);
                 ])
             kept) );
      ("allowlisted", Json.Num (float_of_int allowed));
      ("stale_allow", Json.Arr (List.map (fun s -> Json.Str s) stale));
    ]

(* GitHub workflow annotations: one per finding, so the diff view in a
   PR points at the exact site.  Newlines in messages would break the
   single-line command format, but pp messages are single-line. *)
let annotate (f : Lint.finding) =
  Printf.printf "::error file=%s,line=%d::[%s] %s\n" f.Lint.file f.Lint.line
    f.Lint.rule f.Lint.message

let () =
  let root = ref "." in
  let allow_file = ref "lint.allow" in
  let json_file = ref None in
  let obligations_file = ref None in
  let dirs = ref [] in
  let rec parse_args = function
    | [] -> ()
    | "--root" :: dir :: rest ->
        root := dir;
        parse_args rest
    | "--allow" :: file :: rest ->
        allow_file := file;
        parse_args rest
    | "--json" :: file :: rest ->
        json_file := Some file;
        parse_args rest
    | "--obligations" :: file :: rest ->
        obligations_file := Some file;
        parse_args rest
    | ("--help" | "-h" | "--root" | "--allow" | "--json" | "--obligations") :: _
      ->
        usage ()
    | dir :: rest ->
        dirs := dir :: !dirs;
        parse_args rest
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  Sys.chdir !root;
  let dirs =
    match List.rev !dirs with
    | [] -> [ "lib"; "bin"; "bench"; "test"; "examples"; "perfbench" ]
    | ds -> ds
  in
  (* A missing directory would silently shrink the gate's scope. *)
  List.iter
    (fun dir ->
      if not (Sys.file_exists dir) then begin
        Printf.eprintf "sbft-lint: no such directory: %s\n" dir;
        exit 2
      end)
    dirs;
  (* R16 reads the typed trees dune writes.  Under [dune build @lint]
     the action runs inside the build tree; from a checkout they are
     under _build/default.  A source without an up-to-date typed tree
     would drop out of the rule, so it stops the run like a missing
     directory does. *)
  let build = if Sys.file_exists "_build/default" then "_build/default" else "." in
  let dead_exports =
    match
      Exports.check ~build
        ~mlis:(List.filter (String.starts_with ~prefix:"lib/") (Lint.mli_files dirs))
        ~mls:(Lint.ml_files dirs)
    with
    | Ok findings -> findings
    | Error stale ->
        List.iter
          (Printf.eprintf
             "sbft-lint: no up-to-date typed tree for %s (build them first: dune build @check)\n")
          stale;
        exit 2
  in
  let allow =
    if Sys.file_exists !allow_file then Lint.Allow.parse (Lint.read_file !allow_file)
    else Lint.Allow.empty
  in
  let files =
    List.map
      (fun path -> (path, Lint.parse ~path (Lint.read_file path)))
      (Lint.ml_files dirs)
  in
  (* Comparison sites in every file resolve against the threshold
     definitions the tree's config.ml actually makes. *)
  let defs =
    match List.assoc_opt "lib/core/config.ml" files with
    | Some parsed -> Discipline.config_defs parsed
    | None -> Discipline.default_defs
  in
  let findings =
    List.concat_map
      (fun (path, parsed) ->
        Discipline.check_file ~defs ~path
          ~mli_exists:(Sys.file_exists (path ^ "i")) parsed)
      files
    @ dead_exports
  in
  let kept, allowed = Lint.filter allow findings in
  let stale = Lint.Allow.unused allow findings in
  List.iter (fun f -> print_endline (Lint.pp_finding f)) kept;
  List.iter
    (fun entry ->
      Printf.printf "error: stale lint.allow entry never matched: %s\n" entry)
    stale;
  (match Sys.getenv_opt "GITHUB_ACTIONS" with
  | Some _ -> List.iter annotate kept
  | None -> ());
  (match !json_file with
  | Some file ->
      let oc = open_out_bin file in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () ->
          output_string oc
            (Json.to_string
               (json_report ~files:(List.length files) ~kept
                  ~allowed:(List.length allowed) ~stale)))
  | None -> ());
  (match !obligations_file with
  | Some file ->
      let oc = open_out_bin file in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () -> output_string oc (Discipline.obligation_report defs))
  | None -> ());
  Printf.printf "sbft-lint: %d file(s), %d finding(s), %d allowlisted, %d stale allow\n"
    (List.length files) (List.length kept) (List.length allowed)
    (List.length stale);
  exit (max (Lint.exit_code kept) (match stale with [] -> 0 | _ -> 1))
