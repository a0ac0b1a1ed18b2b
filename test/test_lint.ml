(* Unit tests for the sbft-lint AST pass: one accepting and one
   rejecting case per rule R1-R5, allowlist semantics, and exit codes
   (synthetic snippets attributed to in-scope / out-of-scope paths);
   unit tests for the R12 symbolic extractor and bounded-enumeration
   prover; the lint_fixtures/ corpus golden-diffed against
   expected.txt; and mutation self-checks over the real sources
   proving R9 (delete a wal_sync), R10 (a raw primitive in a replica
   handler, a charge deleted from the priced layer), R11 (disable
   a pacing guard), R12 (weaken quorum_vc), R13 (drop the timer-wrapper
   guard), R14 (drop a check_quorum) and R15 (wildcard a size case) are
   load-bearing. *)

module Lint = Sbft_analysis.Lint
module Discipline = Sbft_analysis.Discipline

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let lint ~path source =
  match Lint.parse ~path source with
  | Ok structure -> Lint.lint_structure ~path structure
  | Error parse_failure -> [ parse_failure ]

(* The per-file entry sbft_lint runs: every rule over one source. *)
let check_file ?(defs = Discipline.default_defs) ?(mli_exists = true) ~path source =
  Discipline.check_file ~defs ~path ~mli_exists (Lint.parse ~path source)

let has_rule r findings =
  List.exists (fun (f : Lint.finding) -> String.equal f.Lint.rule r) findings

let count_rule r findings =
  List.length
    (List.filter (fun (f : Lint.finding) -> String.equal f.Lint.rule r) findings)

let clean findings = check "no findings" true (findings = [])

(* ------------------------------------------------------------------ *)
(* R1: polymorphic comparison in protocol code *)

let test_r1_flags_poly_eq () =
  let fs = lint ~path:"lib/core/foo.ml" "let f a b = a = b" in
  check "poly = flagged" true (has_rule "R1" fs);
  let fs = lint ~path:"lib/core/foo.ml" "let f a b = a <> b" in
  check "poly <> flagged" true (has_rule "R1" fs);
  let fs = lint ~path:"lib/pbft/foo.ml" "let f a b = compare a b" in
  check "poly compare flagged" true (has_rule "R1" fs);
  let fs = lint ~path:"lib/crypto/foo.ml" "let h x = Hashtbl.hash x" in
  check "Hashtbl.hash flagged" true (has_rule "R1" fs);
  let fs = lint ~path:"lib/core/foo.ml" "let f a b = Stdlib.( = ) a b" in
  check "Stdlib.(=) flagged" true (has_rule "R1" fs)

let test_r1_accepts () =
  (* Explicit monomorphic equality. *)
  clean (lint ~path:"lib/core/foo.ml" "let f a b = Int.equal a b");
  (* Constant operand: tag-only check, exempt. *)
  clean (lint ~path:"lib/core/foo.ml" "let f a = a = None");
  clean (lint ~path:"lib/core/foo.ml" "let f a = 0 = a");
  clean (lint ~path:"lib/core/foo.ml" "let f a = a = Blue");
  (* Out of protocol scope. *)
  clean (lint ~path:"lib/sim/foo.ml" "let f a b = a = b");
  clean (lint ~path:"bin/foo.ml" "let f a b = compare a b")

(* ------------------------------------------------------------------ *)
(* R2: partial stdlib functions in protocol code *)

let test_r2_flags_partial () =
  let fs = lint ~path:"lib/core/foo.ml" "let f l = List.hd l" in
  check "List.hd flagged" true (has_rule "R2" fs);
  let fs = lint ~path:"lib/core/foo.ml" "let f o = Option.get o" in
  check "Option.get flagged" true (has_rule "R2" fs);
  let fs = lint ~path:"lib/pbft/foo.ml" "let f t k = Hashtbl.find t k" in
  check "Hashtbl.find flagged" true (has_rule "R2" fs)

let test_r2_accepts () =
  clean (lint ~path:"lib/core/foo.ml" "let f t k = Hashtbl.find_opt t k");
  clean (lint ~path:"lib/core/foo.ml" "let f l n = List.nth_opt l n");
  (* Out of protocol scope. *)
  clean (lint ~path:"lib/harness/foo.ml" "let f l = List.hd l")

(* ------------------------------------------------------------------ *)
(* R3: catch-all exception handlers (everywhere, including bin/) *)

let test_r3_flags_catch_all () =
  let fs = lint ~path:"lib/harness/foo.ml" "let f g = try g () with _ -> 0" in
  check "with _ flagged" true (has_rule "R3" fs);
  let fs = lint ~path:"bin/foo.ml" "let f g = try g () with _ -> 0" in
  check "with _ flagged in bin" true (has_rule "R3" fs);
  let fs =
    lint ~path:"lib/core/foo.ml" "let f g = match g () with x -> x | exception _ -> 0"
  in
  check "exception _ flagged" true (has_rule "R3" fs)

let test_r3_accepts () =
  clean (lint ~path:"lib/harness/foo.ml" "let f g = try g () with Not_found -> 0");
  clean
    (lint ~path:"lib/core/foo.ml"
       "let f g = match g () with x -> x | exception Exit -> 0")

(* ------------------------------------------------------------------ *)
(* R4: quorum-literal arithmetic outside config.ml *)

let test_r4_flags_quorum_literal () =
  let fs = lint ~path:"lib/core/foo.ml" "let q f = (3 * f) + 1" in
  check "3 * f flagged" true (has_rule "R4" fs);
  let fs = lint ~path:"lib/pbft/foo.ml" "let q t = (2 * t.f) + 1" in
  check "2 * t.f flagged" true (has_rule "R4" fs);
  let fs = lint ~path:"lib/core/foo.ml" "let q c = c * 2" in
  check "c * 2 flagged" true (has_rule "R4" fs)

let test_r4_accepts () =
  (* The one blessed home for quorum arithmetic. *)
  clean (lint ~path:"lib/core/config.ml" "let sigma t = (3 * t.f) + t.c + 1");
  (* A multiplication that does not involve the fault parameters. *)
  clean (lint ~path:"lib/core/foo.ml" "let area w h = w * h");
  clean (lint ~path:"lib/core/foo.ml" "let twice x = 2 * x")

(* ------------------------------------------------------------------ *)
(* R5: lib/ modules need a .mli *)

let test_r5_missing_mli () =
  (match Lint.missing_mli ~path:"lib/core/foo.ml" ~mli_exists:false with
  | Some f ->
      check "rule is R5" true (String.equal f.Lint.rule "R5");
      check "path kept" true (String.equal f.Lint.file "lib/core/foo.ml")
  | None -> Alcotest.fail "expected an R5 finding");
  check "mli present -> ok" true
    (Lint.missing_mli ~path:"lib/core/foo.ml" ~mli_exists:true = None);
  check "bin/ exempt" true
    (Lint.missing_mli ~path:"bin/foo.ml" ~mli_exists:false = None)

(* ------------------------------------------------------------------ *)
(* Parse failures surface as findings, not exceptions *)

let test_parse_error () =
  let fs = lint ~path:"lib/core/foo.ml" "let let let" in
  check_int "single finding" 1 (List.length fs);
  check "parse rule" true (has_rule "parse" fs);
  let fs = check_file ~path:"lib/core/foo.ml" "let let let" in
  check_int "single finding from the per-file entry" 1 (List.length fs);
  check "parse rule from the per-file entry" true (has_rule "parse" fs)

(* A "./"-prefixed path names the same file: R9-R15 scope on the
   normalized path and attribute their findings to it. *)
let test_dot_slash_path () =
  let source = Lint.read_file "lint_fixtures/lib/core/r09_pos.ml" in
  let dotted = check_file ~path:"./lib/core/r09_pos.ml" source in
  check "R9 reported" true (has_rule "R9" dotted);
  check "attributed to the normalized path" true
    (List.for_all
       (fun (f : Lint.finding) -> String.equal f.Lint.file "lib/core/r09_pos.ml")
       dotted);
  Alcotest.(check (list string))
    "same findings as the plain path"
    (List.map Lint.pp_finding (check_file ~path:"lib/core/r09_pos.ml" source))
    (List.map Lint.pp_finding dotted)

(* ------------------------------------------------------------------ *)
(* Allowlist *)

let finding_at ~rule ~file ~line =
  { Lint.rule; file; line; message = "test" }

(* An allowlist covers a finding when [Lint.filter] moves it to the
   allowed side. *)
let allowed allow f =
  match Lint.filter allow [ f ] with [], [ _ ] -> true | _ -> false

let test_allowlist () =
  let allow =
    Lint.Allow.parse
      "# comment\n\
       R1 lib/core/foo.ml:3   # vetted\n\
       R2 lib/core/bar.ml     # whole file\n\
       * lib/core/baz.ml      # any rule\n"
  in
  let f_exact = finding_at ~rule:"R1" ~file:"lib/core/foo.ml" ~line:3 in
  let f_wrong_line = finding_at ~rule:"R1" ~file:"lib/core/foo.ml" ~line:4 in
  let f_wrong_rule = finding_at ~rule:"R2" ~file:"lib/core/foo.ml" ~line:3 in
  let f_file_wide = finding_at ~rule:"R2" ~file:"lib/core/bar.ml" ~line:17 in
  let f_wildcard = finding_at ~rule:"R4" ~file:"lib/core/baz.ml" ~line:1 in
  check "exact entry matches" true (allowed allow f_exact);
  check "line must match" false (allowed allow f_wrong_line);
  check "rule must match" false (allowed allow f_wrong_rule);
  check "file-wide entry" true (allowed allow f_file_wide);
  check "wildcard rule" true (allowed allow f_wildcard);
  check "empty allows nothing" false (allowed Lint.Allow.empty f_exact);
  let kept, allowed =
    Lint.filter allow [ f_exact; f_wrong_line; f_file_wide ]
  in
  check_int "kept" 1 (List.length kept);
  check_int "allowed" 2 (List.length allowed);
  (* Stale entries are reported. *)
  let unused = Lint.Allow.unused allow [ f_exact ] in
  check_int "two stale entries" 2 (List.length unused)

(* ------------------------------------------------------------------ *)
(* R16: no export without a user, on hand-built exports and uses *)

module Exports = Sbft_analysis.Exports

let export ?heading name line =
  {
    Exports.path = [ "Sbft_core__Config"; name ];
    file = "lib/core/config.mli";
    line;
    heading;
  }

let use ?(whole = false) from target = { Exports.target; whole; from }

(* dune's wrapper module: [Sbft_core.Config] is [Sbft_core__Config]. *)
let wrapper = [ ([ "Sbft_core"; "Config" ], [ "Sbft_core__Config" ]) ]

let r16 ?(aliases = wrapper) exports uses =
  List.map Lint.pp_finding (Exports.findings ~aliases ~exports ~uses)

let test_r16_dead () =
  Alcotest.(check (list string))
    "no user at all, and a use from its own .ml does not count"
    [
      "lib/core/config.mli:3: [R16] Config.dead is exported but no other unit \
       uses it; delete it";
    ]
    (r16 [ export "dead" 3 ] [ use "lib/core/config.ml" [ "Sbft_core"; "Config"; "dead" ] ])

let test_r16_test_only () =
  Alcotest.(check (list string))
    "used only from test/"
    [
      "lib/core/config.mli:4: [R16] Config.probe is used only by \
       test/test_a.ml, test/test_b.ml; move it under a test-hook heading or \
       drop it from the interface";
    ]
    (r16 [ export "probe" 4 ]
       [
         use "test/test_b.ml" [ "Sbft_core"; "Config"; "probe" ];
         use "test/test_a.ml" [ "Sbft_core__Config"; "probe" ];
       ])

let test_r16_test_hook () =
  let uses = [ use "test/test_a.ml" [ "Sbft_core"; "Config"; "probe" ] ] in
  Alcotest.(check (list string))
    "a test-hook heading covers a test-only value" []
    (r16 [ export ~heading:"Byzantine behaviours (tests only)" "probe" 9 ] uses);
  Alcotest.(check int)
    "a heading that does not name tests covers nothing" 1
    (List.length (r16 [ export ~heading:"Latest results" "probe" 9 ] uses))

let test_r16_local_alias () =
  (* [module Config = Sbft_core.Config] in bin/x.ml, then [Config.quorum]:
     two alias hops to the export's key. *)
  let aliases = ([ "bin/x.ml#Config_12" ], [ "Sbft_core"; "Config" ]) :: wrapper in
  Alcotest.(check (list string))
    "a use through a local alias counts" []
    (r16 ~aliases [ export "quorum" 5 ] [ use "bin/x.ml" [ "bin/x.ml#Config_12"; "quorum" ] ]);
  Alcotest.(check int)
    "the same local name bound in another file is another module" 1
    (List.length
       (r16 ~aliases [ export "quorum" 5 ] [ use "bin/y.ml" [ "bin/y.ml#Config_12"; "quorum" ] ]))

let test_r16_perfbench () =
  Alcotest.(check (list string))
    "perfbench is a user" []
    (r16 [ export "bench_only" 6 ]
       [ use "perfbench/perf.ml" [ "Sbft_core"; "Config"; "bench_only" ] ]);
  Alcotest.(check (list string))
    "a module used whole (functor argument, first-class pack) uses every value" []
    (r16 [ export "a" 7; export "b" 8 ]
       [ use ~whole:true "bench/main.ml" [ "Sbft_core"; "Config" ] ])

(* ------------------------------------------------------------------ *)
(* Exit codes *)

let test_exit_code () =
  check_int "no findings -> 0" 0 (Lint.exit_code []);
  check_int "error -> 1" 1
    (Lint.exit_code [ finding_at ~rule:"R1" ~file:"lib/core/foo.ml" ~line:1 ])

(* ------------------------------------------------------------------ *)
(* A multi-violation source is fully reported, sorted by line *)

let test_multiple_findings () =
  let src =
    "let a x y = x = y\n\
     let b l = List.hd l\n\
     let c g = try g () with _ -> 0\n"
  in
  let fs = lint ~path:"lib/core/foo.ml" src in
  check_int "R1" 1 (count_rule "R1" fs);
  check_int "R2" 1 (count_rule "R2" fs);
  check_int "R3" 1 (count_rule "R3" fs);
  let lines = List.map (fun (f : Lint.finding) -> f.Lint.line) fs in
  check "sorted by line" true (List.sort Int.compare lines = lines)

let index_from s start sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None
    else if String.equal (String.sub s i m) sub then Some i
    else go (i + 1)
  in
  go start

let has_finding ~rule ~needle findings =
  List.exists
    (fun (f : Lint.finding) ->
      String.equal f.Lint.rule rule
      && (match index_from f.Lint.message 0 needle with
         | Some _ -> true
         | None -> false))
    findings

(* ------------------------------------------------------------------ *)
(* R12: symbolic extractor + bounded-enumeration prover.  Definitions
   are extracted from synthetic config-like sources and the shared
   obligation list is discharged (or not) by Discipline.lint_defs. *)

let defs_findings source =
  match Lint.parse ~path:"lib/core/config.ml" source with
  | Error _ -> Alcotest.fail "definition source failed to parse"
  | Ok structure -> (
      match Discipline.extract_defs ~path:"lib/core/config.ml" structure with
      | None -> Alcotest.fail "no threshold definitions extracted"
      | Some defs -> Discipline.lint_defs defs)

let canonical_defs_src =
  "let n t = (3 * t.f) + (2 * t.c) + 1\n\
   let sigma_threshold t = (3 * t.f) + t.c + 1\n\
   let tau_threshold t = (2 * t.f) + t.c + 1\n\
   let pi_threshold t = t.f + 1\n\
   let quorum_vc t = (2 * t.f) + (2 * t.c) + 1\n\
   let quorum_bft t = (2 * t.f) + 1\n"

let test_r12_extractor_canonical () =
  (* The canonical formulas extract as linear forms and discharge every
     obligation: no findings. *)
  Alcotest.(check (list string))
    "canonical definitions are clean" []
    (List.map Lint.pp_finding (defs_findings canonical_defs_src))

let test_r12_extractor_shapes () =
  (* Nested additions, subtraction and both ident/field spellings of
     the fault parameters all normalize to the same linear form. *)
  let src =
    "let n t = t.f + t.f + t.f + t.c + t.c + 1\n\
     let sigma_threshold t = (3 * t.f) + (t.c + 2) - 1\n\
     let tau_threshold cfg = (2 * cfg.f) + cfg.c + 1\n\
     let pi_threshold t = t.f + 1\n\
     let quorum_vc t = (2 * t.f) + (2 * t.c) + 1\n\
     let quorum_bft t = (2 * t.f) + 1\n"
  in
  Alcotest.(check (list string))
    "equivalent spellings are clean" []
    (List.map Lint.pp_finding (defs_findings src))

let test_r12_prover_weak_tau () =
  (* tau = 2f + c fails tau-tau intersection; the prover reports a
     concrete witness point on the admissible grid. *)
  let src =
    "let n t = (3 * t.f) + (2 * t.c) + 1\n\
     let sigma_threshold t = (3 * t.f) + t.c + 1\n\
     let tau_threshold t = (2 * t.f) + t.c\n\
     let pi_threshold t = t.f + 1\n\
     let quorum_vc t = (2 * t.f) + (2 * t.c) + 1\n\
     let quorum_bft t = (2 * t.f) + 1\n"
  in
  let fs = defs_findings src in
  check "weakened tau diverges" true (has_finding ~rule:"R12" ~needle:"diverges" fs);
  check "tau-tau intersection violated" true
    (has_finding ~rule:"R12" ~needle:"tau-tau-intersection" fs)

let test_r12_prover_nonlinear () =
  let src =
    "let n t = (3 * t.f) + (2 * t.c) + 1\n\
     let sigma_threshold t = t.f * t.f + 1\n\
     let tau_threshold t = (2 * t.f) + t.c + 1\n\
     let pi_threshold t = t.f + 1\n\
     let quorum_vc t = (2 * t.f) + (2 * t.c) + 1\n\
     let quorum_bft t = (2 * t.f) + 1\n"
  in
  check "non-linear sigma flagged" true
    (has_finding ~rule:"R12" ~needle:"not a linear form"
       (defs_findings src))

let test_r12_mutation_branches () =
  (* A mutation branch that weakens sigma is live (clean); one that
     restates the canonical formula is vacuous. *)
  let with_branch body =
    "type mutation = M\n\
     let n t = (3 * t.f) + (2 * t.c) + 1\n\
     let sigma_threshold t = match t.mutation with Some M -> " ^ body
    ^ " | _ -> (3 * t.f) + t.c + 1\n\
       let tau_threshold t = (2 * t.f) + t.c + 1\n\
       let pi_threshold t = t.f + 1\n\
       let quorum_vc t = (2 * t.f) + (2 * t.c) + 1\n\
       let quorum_bft t = (2 * t.f) + 1\n"
  in
  Alcotest.(check (list string))
    "weakening mutation is clean" []
    (List.map Lint.pp_finding (defs_findings (with_branch "(2 * t.f) + t.c")));
  check "canonical mutation is vacuous" true
    (has_finding ~rule:"R12" ~needle:"vacuous"
       (defs_findings (with_branch "(3 * t.f) + t.c + 1")))

let test_r12_adjust_annotation () =
  (* The pbft [quorum t - 1] shape: a local alias of quorum_bft,
     hand-adjusted by one implicit vote.  Without the annotation R12
     fires; with the matching annotation it is clean. *)
  let src annotate =
    "let quorum t = Config.quorum_bft (cfg t)\n\
     let check t =\n\
    \  (Hashtbl.length t.prepares >= quorum t - 1)" ^ annotate ^ "\n"
  in
  check "unannotated adjustment flagged" true
    (has_finding ~rule:"R12" ~needle:"[@quorum.adjust 1]"
       (check_file ~path:"lib/pbft/foo.ml" (src "")));
  Alcotest.(check (list string))
    "annotated adjustment is clean" []
    (List.map Lint.pp_finding
       (check_file ~path:"lib/pbft/foo.ml" (src " [@quorum.adjust 1]")))

let test_r15_cost_model_scope () =
  (* Every top-level variant table in the real price file,
     lib/crypto/cost_model.ml, is a price table: wildcards are rejected
     there even though the file is outside the handler scope and has no
     msg type. *)
  let src = "let price = function Add -> 3 | _ -> 5\n" in
  let cost_model = "lib/crypto/cost_model.ml" in
  check "wildcard price table flagged" true
    (has_finding ~rule:"R15" ~needle:"wildcard case in price"
       (check_file ~path:cost_model src));
  clean (check_file ~path:cost_model "let price = function Add -> 3 | Mul -> 5\n");
  (* R15 alone runs there: an unwrapped timer is no R13 finding. *)
  clean
    (check_file ~path:cost_model
       "let arm e = Engine.set_timer e ~node:0 ~after:1 (fun _ -> ())\n");
  (* The same table outside cost_model.ml is not wire-accounting. *)
  clean (check_file ~path:"lib/core/foo.ml" src);
  clean (check_file ~path:"lib/crypto/foo.ml" src)

let test_r12_obligation_report () =
  let report = Discipline.obligation_report Discipline.default_defs in
  let contains needle =
    match index_from report 0 needle with Some _ -> true | None -> false
  in
  check "report lists sigma formula" true (contains "sigma_threshold");
  check "report passes tau-tau" true (contains "PASS tau-tau-intersection");
  check "report has no failures" false (contains "FAIL")

(* ------------------------------------------------------------------ *)
(* Fixture corpus: every file under lint_fixtures/ is linted (with the
   prefix stripped so rule scoping sees lib/core/...) and the findings
   are diffed against the committed golden file. *)

let lint_fixture disk_path =
  let prefix = "lint_fixtures/" in
  let lint_path =
    String.sub disk_path (String.length prefix)
      (String.length disk_path - String.length prefix)
  in
  (* Only the r05_* fixtures exercise the missing-mli rule; no other
     fixture ships an interface on purpose. *)
  let mli_exists =
    (not (String.starts_with ~prefix:"r05" (Filename.basename disk_path)))
    || Sys.file_exists (disk_path ^ "i")
  in
  check_file ~mli_exists ~path:lint_path (Lint.read_file disk_path)

let test_fixture_golden () =
  let files = Lint.ml_files [ "lint_fixtures" ] in
  Alcotest.(check bool) "corpus present" true (List.length files > 20);
  let actual =
    String.concat ""
      (List.concat_map
         (fun disk_path ->
           List.map (fun f -> Lint.pp_finding f ^ "\n") (lint_fixture disk_path))
         files)
  in
  let expected = Lint.read_file "lint_fixtures/expected.txt" in
  Alcotest.(check string) "fixture findings match golden" expected actual

(* ------------------------------------------------------------------ *)
(* Mutation self-checks against the real replica implementation: the
   acceptance bar for R9-R11 is that deleting one wal_sync or one pacing
   guard, calling one raw primitive from a handler, or deleting one
   charge from the priced layer makes the lint fail at the exact site.  The
   allowlist is applied so the checks prove a *new* finding appears,
   not that vetted ones exist.  (A mutation shifts line numbers below
   the edit, so line-pinned allow entries there go stale; the checks
   therefore assert presence of the expected finding, not counts.) *)

let replica_path = "../lib/core/replica.ml"
let priced_path = "../lib/core/priced.ml"
let config_path = "../lib/core/config.ml"
let types_path = "../lib/core/types.ml"

let lint_real ~path source =
  let defs =
    Discipline.config_defs
      (Lint.parse ~path:"lib/core/config.ml" (Lint.read_file config_path))
  in
  let findings = check_file ~defs ~path source in
  let allow = Lint.Allow.parse (Lint.read_file "../lint.allow") in
  let kept, _ = Lint.filter allow findings in
  kept

let lint_replica source = lint_real ~path:"lib/core/replica.ml" source

(* Replace the first occurrence of [needle] at-or-after [after] with
   [repl], failing loudly if either string has drifted out of the
   source (so a refactor cannot silently turn these into no-ops). *)
let mutate source ~after ~needle ~repl =
  match index_from source 0 after with
  | None -> Alcotest.fail (Printf.sprintf "mutation anchor not found: %s" after)
  | Some a -> (
      match index_from source (a + String.length after) needle with
      | None -> Alcotest.fail (Printf.sprintf "mutation needle not found: %s" needle)
      | Some i ->
          String.concat ""
            [
              String.sub source 0 i;
              repl;
              String.sub source
                (i + String.length needle)
                (String.length source - i - String.length needle);
            ])

let test_replica_baseline () =
  let kept = lint_replica (Lint.read_file replica_path) in
  Alcotest.(check (list string))
    "no unvetted findings in pristine replica.ml" []
    (List.map Lint.pp_finding kept)

(* R9: drop the wal_sync between logging Accepted_pre_prepare and
   sending the Sign_share (in promise_block, which both on_pre_prepare
   and the new-view adoption path reach). *)
let test_mutation_r9_sign_share () =
  let mutated =
    mutate (Lint.read_file replica_path)
      ~after:"Accepted_pre_prepare { seq; view; reqs });"
      ~needle:"wal_sync t ctx;" ~repl:""
  in
  let kept = lint_replica mutated in
  Alcotest.(check bool) "R9 finding names Sign_share" true
    (has_finding ~rule:"R9" ~needle:"Sign_share" kept)

(* R9 again on an unrelated record/message pair: drop the wal_sync
   after logging View_change_started, before the View_change vote. *)
let test_mutation_r9_view_change () =
  let mutated =
    mutate (Lint.read_file replica_path)
      ~after:"View_change_started target_view);"
      ~needle:"wal_sync t ctx;" ~repl:""
  in
  let kept = lint_replica mutated in
  Alcotest.(check bool) "R9 finding names View_change" true
    (has_finding ~rule:"R9" ~needle:"View_change" kept)

(* R10, handler half: verify π in a replica handler with the raw
   primitive instead of the priced call. *)
let test_mutation_r10_raw_verify () =
  let mutated =
    mutate (Lint.read_file replica_path) ~after:"and on_full_execute_proof"
      ~needle:"Priced.verify ctx (keys t) (keys t).Keys.pi ~msg:(Types.pi_message ~seq ~digest) pi"
      ~repl:
        "Threshold.verify_h (keys t).Keys.pi\n\
        \      ~h:(Keys.hash_to_field (keys t) (Types.pi_message ~seq ~digest)) pi"
  in
  let kept = lint_replica mutated in
  Alcotest.(check bool) "R10 finding names Threshold.verify_h" true
    (has_finding ~rule:"R10" ~needle:"Threshold.verify_h" kept)

(* R10, layer half: delete the charge from Priced.verify, leaving the
   verification it prices unpaid. *)
let test_mutation_r10_priced_charge () =
  let mutated =
    mutate (Lint.read_file priced_path) ~after:"let verify ctx keys scheme ~msg s ="
      ~needle:"Engine.charge ctx (Tally.note \"proof_verify\" Cost_model.bls_verify);"
      ~repl:""
  in
  let kept = lint_real ~path:"lib/core/priced.ml" mutated in
  Alcotest.(check bool) "R10 finding names the uncharged verify" true
    (has_finding ~rule:"R10" ~needle:"priced function verify calls Threshold.verify_h" kept)

(* R11: disable the per-requester pacing guard in on_get_state, turning
   Get_state floods back into State_resp floods. *)
let test_mutation_r11_get_state () =
  let mutated =
    mutate (Lint.read_file replica_path) ~after:"and on_get_state"
      ~needle:"if allow then begin" ~repl:"if true then begin"
  in
  let kept = lint_replica mutated in
  Alcotest.(check bool) "R11 finding names State_resp" true
    (has_finding ~rule:"R11" ~needle:"State_resp" kept)

(* R12: weaken the real view-change quorum to 2f+2c.  The symbolic
   prover must name the violated intersection obligation. *)
let test_mutation_r12_weak_vc () =
  let mutated =
    mutate (Lint.read_file config_path) ~after:"let quorum_vc t ="
      ~needle:"| _ -> (2 * t.f) + (2 * t.c) + 1"
      ~repl:"| _ -> (2 * t.f) + (2 * t.c)"
  in
  let kept = lint_real ~path:"lib/core/config.ml" mutated in
  Alcotest.(check bool) "R12 finding names tau-vc-intersection" true
    (has_finding ~rule:"R12" ~needle:"tau-vc-intersection" kept)

(* R13: drop the retire guard from the replica's timer wrapper — every
   armed callback becomes a potential zombie tick. *)
let test_mutation_r13_timer_guard () =
  let mutated =
    mutate (Lint.read_file replica_path) ~after:"let set_replica_timer"
      ~needle:"if not t.retired then f ctx" ~repl:"f ctx"
  in
  let kept = lint_replica mutated in
  Alcotest.(check bool) "R13 finding at the raw arm site" true
    (has_finding ~rule:"R13" ~needle:"set_timer arms a timer" kept)

(* R14: remove the check_quorum pairing the pi-threshold view-change
   join decision. *)
let test_mutation_r14_drop_check () =
  let mutated =
    mutate (Lint.read_file replica_path) ~after:"and on_view_change"
      ~needle:"Sanitizer.check_quorum t.san Sanitizer.Pi ~count:support;"
      ~repl:""
  in
  let kept = lint_replica mutated in
  Alcotest.(check bool) "R14 finding demands check_quorum Pi" true
    (has_finding ~rule:"R14" ~needle:"check_quorum Pi" kept)

(* R15: hide a message constructor behind a wildcard in the real wire
   size table. *)
let test_mutation_r15_wildcard_size () =
  let mutated =
    mutate (Lint.read_file types_path) ~after:"let size = function"
      ~needle:"| Sign_state _ -> header + share_size + 32"
      ~repl:"| _ -> header + share_size + 32"
  in
  let kept = lint_real ~path:"lib/core/types.ml" mutated in
  Alcotest.(check bool) "R15 finding at the wildcarded size case" true
    (has_finding ~rule:"R15" ~needle:"wildcard case in size" kept)

let () =
  Alcotest.run "sbft_lint"
    [
      ( "rules",
        [
          Alcotest.test_case "r1 flags" `Quick test_r1_flags_poly_eq;
          Alcotest.test_case "r1 accepts" `Quick test_r1_accepts;
          Alcotest.test_case "r2 flags" `Quick test_r2_flags_partial;
          Alcotest.test_case "r2 accepts" `Quick test_r2_accepts;
          Alcotest.test_case "r3 flags" `Quick test_r3_flags_catch_all;
          Alcotest.test_case "r3 accepts" `Quick test_r3_accepts;
          Alcotest.test_case "r4 flags" `Quick test_r4_flags_quorum_literal;
          Alcotest.test_case "r4 accepts" `Quick test_r4_accepts;
          Alcotest.test_case "r5 missing mli" `Quick test_r5_missing_mli;
          Alcotest.test_case "parse error" `Quick test_parse_error;
          Alcotest.test_case "dot-slash path" `Quick test_dot_slash_path;
          Alcotest.test_case "multiple findings" `Quick test_multiple_findings;
        ] );
      ( "quorum",
        [
          Alcotest.test_case "r12 extractor canonical" `Quick
            test_r12_extractor_canonical;
          Alcotest.test_case "r12 extractor shapes" `Quick
            test_r12_extractor_shapes;
          Alcotest.test_case "r12 prover weak tau" `Quick
            test_r12_prover_weak_tau;
          Alcotest.test_case "r12 prover nonlinear" `Quick
            test_r12_prover_nonlinear;
          Alcotest.test_case "r12 mutation branches" `Quick
            test_r12_mutation_branches;
          Alcotest.test_case "r12 adjust annotation" `Quick
            test_r12_adjust_annotation;
          Alcotest.test_case "r15 cost-model scope" `Quick
            test_r15_cost_model_scope;
          Alcotest.test_case "r12 obligation report" `Quick
            test_r12_obligation_report;
        ] );
      ( "driver",
        [
          Alcotest.test_case "allowlist" `Quick test_allowlist;
          Alcotest.test_case "exit code" `Quick test_exit_code;
        ] );
      ( "exports",
        [
          Alcotest.test_case "r16 dead value" `Quick test_r16_dead;
          Alcotest.test_case "r16 test-only value" `Quick test_r16_test_only;
          Alcotest.test_case "r16 test-hook heading" `Quick test_r16_test_hook;
          Alcotest.test_case "r16 local alias" `Quick test_r16_local_alias;
          Alcotest.test_case "r16 perfbench user" `Quick test_r16_perfbench;
        ] );
      ( "fixtures",
        [ Alcotest.test_case "golden corpus" `Quick test_fixture_golden ] );
      ( "mutations",
        [
          Alcotest.test_case "replica baseline clean" `Quick
            test_replica_baseline;
          Alcotest.test_case "r9 sign-share" `Quick test_mutation_r9_sign_share;
          Alcotest.test_case "r9 view-change" `Quick
            test_mutation_r9_view_change;
          Alcotest.test_case "r10 raw-verify" `Quick
            test_mutation_r10_raw_verify;
          Alcotest.test_case "r10 priced-charge" `Quick
            test_mutation_r10_priced_charge;
          Alcotest.test_case "r11 get-state" `Quick
            test_mutation_r11_get_state;
          Alcotest.test_case "r12 weak-vc" `Quick test_mutation_r12_weak_vc;
          Alcotest.test_case "r13 timer-guard" `Quick
            test_mutation_r13_timer_guard;
          Alcotest.test_case "r14 drop-check" `Quick
            test_mutation_r14_drop_check;
          Alcotest.test_case "r15 wildcard-size" `Quick
            test_mutation_r15_wildcard_size;
        ] );
    ]
