(* Unit tests for the dataflow lint rules: R6 (authenticate-before-use
   taint) and R7 (determinism), plus allowlist staleness.  Like
   test_lint.ml, sources are synthetic snippets attributed to in-scope
   or out-of-scope paths. *)

module Lint = Sbft_analysis.Lint

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let lint ~path source =
  match Lint.parse ~path source with
  | Ok structure -> Lint.lint_structure ~path structure
  | Error parse_failure -> [ parse_failure ]

let has_rule r findings =
  List.exists (fun (f : Lint.finding) -> String.equal f.Lint.rule r) findings

let count_rule r findings =
  List.length
    (List.filter (fun (f : Lint.finding) -> String.equal f.Lint.rule r) findings)

let no_rule r findings =
  check (Printf.sprintf "no %s finding" r) false (has_rule r findings)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.equal (String.sub s i n) sub || go (i + 1)) in
  go 0

let r6_message findings =
  match
    List.find_opt (fun (f : Lint.finding) -> String.equal f.Lint.rule "R6") findings
  with
  | Some f -> f.Lint.message
  | None -> ""

(* ------------------------------------------------------------------ *)
(* R6: the known-vulnerable fixture — a handler that skips the
   signature check and writes network input straight into state *)

let vulnerable_handler =
  "let on_request t msg =\n\
  \  Hashtbl.replace t.table 0 msg\n"

let clean_r6 src = no_rule "R6" (lint ~path:"lib/core/foo.ml" src)

let test_r6_flags_vulnerable () =
  let fs = lint ~path:"lib/core/foo.ml" vulnerable_handler in
  check "unverified write flagged" true (has_rule "R6" fs);
  (* The finding carries the taint chain back to the handler param. *)
  check "chain names the source" true (contains ~sub:"msg(line 1)" (r6_message fs))

let test_r6_verify_clears () =
  (* Same handler with the verify guard: no finding. *)
  clean_r6
    "let on_request t msg =\n\
    \  if Keys.verify t.keys msg then Hashtbl.replace t.table 0 msg\n"

let test_r6_sanitizer_binding () =
  (* Sanitizer result bound to a witness variable, tested later. *)
  clean_r6
    "let on_request t msg =\n\
    \  let ok = Crypto.verify t.keys msg in\n\
    \  if ok then Hashtbl.replace t.table 0 msg\n";
  (* Combinator form: List.for_all over a verifying predicate. *)
  clean_r6
    "let on_batch t msgs =\n\
    \  if List.for_all (fun m -> Keys.verify_request t.keys m) msgs then\n\
    \    List.iter (fun m -> Hashtbl.replace t.table 0 m) msgs\n"

let test_r6_chain_through_let () =
  (* Taint flows through intermediate bindings, and the chain names
     them. *)
  let fs =
    lint ~path:"lib/core/foo.ml"
      "let on_commit t share =\n\
      \  let cooked = transform share in\n\
      \  t.field <- cooked\n"
  in
  check_int "one R6 finding" 1 (count_rule "R6" fs);
  let msg = r6_message fs in
  check "chain has the derived binding" true (contains ~sub:"cooked(line 2)" msg);
  check "chain reaches the source" true (contains ~sub:"share(line 1)" msg)

let test_r6_scoping () =
  (* Implicit (link-authenticated) parameters are not sources. *)
  clean_r6 "let on_tick t seq = Hashtbl.replace t.table 0 seq\n";
  (* Non-handler functions are not entry points. *)
  clean_r6 "let helper t msg = Hashtbl.replace t.table 0 msg\n";
  (* R6 only runs over the handler layers (lib/core, lib/pbft). *)
  no_rule "R6" (lint ~path:"lib/harness/foo.ml" vulnerable_handler);
  no_rule "R6" (lint ~path:"lib/sim/foo.ml" vulnerable_handler);
  check "pbft in scope" true
    (has_rule "R6" (lint ~path:"lib/pbft/foo.ml" vulnerable_handler))

let test_r6_match_binding () =
  (* Taint follows values destructured out of a tainted scrutinee; a
     when-guard that verifies clears it. *)
  let fs =
    lint ~path:"lib/core/foo.ml"
      "let on_message t msg =\n\
      \  match msg with Some inner -> t.field <- inner | None -> ()\n"
  in
  check "destructured taint flagged" true (has_rule "R6" fs);
  clean_r6
    "let on_message t msg =\n\
    \  match msg with\n\
    \  | Some inner when Keys.verify t.keys inner -> t.field <- inner\n\
    \  | _ -> ()\n"

(* ------------------------------------------------------------------ *)
(* R7: determinism fixtures *)

let test_r7_random () =
  let fs = lint ~path:"lib/core/foo.ml" "let f () = Random.int 5" in
  check "Random in lib/core flagged" true (has_rule "R7" fs);
  let fs = lint ~path:"lib/sim/engine.ml" "let f () = Random.int 5" in
  check "Random in lib/sim flagged" true (has_rule "R7" fs);
  (* The one blessed home for randomness. *)
  no_rule "R7" (lint ~path:"lib/sim/rng.ml" "let f () = Random.int 5")

let test_r7_host_state () =
  let fs = lint ~path:"lib/harness/foo.ml" "let f () = Unix.gettimeofday ()" in
  check "Unix flagged" true (has_rule "R7" fs);
  let fs = lint ~path:"lib/core/foo.ml" "let f () = Sys.time ()" in
  check "Sys.time flagged" true (has_rule "R7" fs);
  (* bin/ is free to talk to the host. *)
  no_rule "R7" (lint ~path:"bin/foo.ml" "let f () = Unix.gettimeofday ()");
  no_rule "R7" (lint ~path:"bin/foo.ml" "let f () = Sys.time ()")

let test_r7_physical_eq () =
  let fs = lint ~path:"lib/core/foo.ml" "let f a b = a == b" in
  check "== flagged" true (has_rule "R7" fs);
  let fs = lint ~path:"lib/core/foo.ml" "let equal = ( == )" in
  check "== as value flagged" true (has_rule "R7" fs);
  (* Physical equality is a protocol-scope rule, like R1. *)
  no_rule "R7" (lint ~path:"lib/sim/foo.ml" "let f a b = a == b")

let test_r7_hashtbl_order () =
  let fs = lint ~path:"lib/core/foo.ml" "let f t = Hashtbl.iter print t" in
  check "unordered iter flagged" true (has_rule "R7" fs);
  let fs =
    lint ~path:"lib/harness/foo.ml"
      "let f t = Hashtbl.fold (fun k _ a -> k :: a) t []"
  in
  check "bare fold flagged" true (has_rule "R7" fs);
  let fs = lint ~path:"lib/core/foo.ml" "let f t = Hashtbl.to_seq t" in
  check "to_seq flagged" true (has_rule "R7" fs)

let test_r7_sort_exemption () =
  (* All three spellings of fold-into-sort are exempt. *)
  let clean_r7 src = no_rule "R7" (lint ~path:"lib/core/foo.ml" src) in
  clean_r7
    "let f t = Hashtbl.fold (fun k _ a -> k :: a) t [] |> List.sort Int.compare";
  clean_r7
    "let f t = List.sort Int.compare (Hashtbl.fold (fun k _ a -> k :: a) t [])";
  clean_r7
    "let f t = List.sort Int.compare @@ Hashtbl.fold (fun k _ a -> k :: a) t []";
  (* A sort somewhere else does not bless an unrelated fold. *)
  let fs =
    lint ~path:"lib/core/foo.ml"
      "let f t l =\n\
      \  ignore (List.sort Int.compare l);\n\
      \  Hashtbl.fold (fun k _ a -> k :: a) t []\n"
  in
  check "unrelated sort does not exempt" true (has_rule "R7" fs);
  (* det.ml itself is the blessed wrapper. *)
  no_rule "R7" (lint ~path:"lib/sim/det.ml" "let f t = Hashtbl.iter print t")

(* ------------------------------------------------------------------ *)
(* lint.allow staleness regression for the new rules: entries that stop
   matching are reported, entries that still match are not *)

let finding_at ~rule ~file ~line =
  { Lint.rule; file; line; message = "test" }

let test_allow_stale_entries () =
  let allow =
    Lint.Allow.parse
      "R6 lib/core/replica.ml:100   # vetted flow\n\
       R7 lib/core/gone.ml          # file was fixed since\n"
  in
  let live = finding_at ~rule:"R6" ~file:"lib/core/replica.ml" ~line:100 in
  (* Both entries present, only one matching: exactly one stale line. *)
  let stale = Lint.Allow.unused allow [ live ] in
  check_int "one stale entry" 1 (List.length stale);
  check "stale entry named" true
    (List.exists (contains ~sub:"lib/core/gone.ml") stale);
  (* When the R7 finding reappears, nothing is stale. *)
  let back = finding_at ~rule:"R7" ~file:"lib/core/gone.ml" ~line:3 in
  check_int "no stale entries" 0
    (List.length (Lint.Allow.unused allow [ live; back ]))

let () =
  Alcotest.run "sbft_taint"
    [
      ( "r6",
        [
          Alcotest.test_case "flags vulnerable handler" `Quick test_r6_flags_vulnerable;
          Alcotest.test_case "verify clears" `Quick test_r6_verify_clears;
          Alcotest.test_case "witness + combinator" `Quick test_r6_sanitizer_binding;
          Alcotest.test_case "chain through lets" `Quick test_r6_chain_through_let;
          Alcotest.test_case "scoping" `Quick test_r6_scoping;
          Alcotest.test_case "match bindings" `Quick test_r6_match_binding;
        ] );
      ( "r7",
        [
          Alcotest.test_case "random" `Quick test_r7_random;
          Alcotest.test_case "host state" `Quick test_r7_host_state;
          Alcotest.test_case "physical equality" `Quick test_r7_physical_eq;
          Alcotest.test_case "hashtbl order" `Quick test_r7_hashtbl_order;
          Alcotest.test_case "sort exemption" `Quick test_r7_sort_exemption;
        ] );
      ( "allowlist",
        [ Alcotest.test_case "stale entries" `Quick test_allow_stale_entries ] );
    ]
