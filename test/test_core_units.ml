(* Unit tests for the smaller core-protocol components: configuration
   arithmetic, collector selection, adaptive batching, message hashing
   and size accounting, request authentication, and the end-of-run
   agreement check. *)

open Sbft_core

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Config *)

let test_config_arithmetic () =
  let c = Config.sbft ~f:64 ~c:8 in
  check_int "n" 209 (Config.n c);
  check_int "sigma" 201 (Config.sigma_threshold c);
  check_int "tau" 137 (Config.tau_threshold c);
  check_int "pi" 65 (Config.pi_threshold c);
  check_int "vc quorum" 145 (Config.quorum_vc c);
  let c0 = Config.sbft ~f:64 ~c:0 in
  check_int "n c=0" 193 (Config.n c0);
  check_int "sigma = n when c=0" (Config.n c0) (Config.sigma_threshold c0)

let test_config_presets () =
  let lp = Config.linear_pbft ~f:2 in
  check "no fast path" false lp.Config.fast_path;
  check "no exec acks" false lp.Config.execution_acks;
  let lpf = Config.linear_pbft_fast ~f:2 in
  check "fast path" true lpf.Config.fast_path;
  check "still no exec acks" false lpf.Config.execution_acks;
  let s = Config.sbft ~f:2 ~c:1 in
  check "full sbft" true (s.Config.fast_path && s.Config.execution_acks)

let test_config_validate () =
  check "valid" true (Config.validate (Config.sbft ~f:1 ~c:0) = Ok ());
  check "negative f" true (Config.validate { (Config.sbft ~f:1 ~c:0) with Config.f = -1 } <> Ok ());
  check "tiny win" true (Config.validate { (Config.sbft ~f:1 ~c:0) with Config.win = 2 } <> Ok ())

(* ------------------------------------------------------------------ *)
(* Collectors *)

let config = Config.sbft ~f:4 ~c:2 (* n = 17 *)

let test_primary_rotation () =
  check_int "view 0" 0 (Collectors.primary ~config ~view:0);
  check_int "view 5" 5 (Collectors.primary ~config ~view:5);
  check_int "wraps" 1 (Collectors.primary ~config ~view:(Config.n config + 1))

let test_collectors_basic () =
  let cs = Collectors.c_collectors ~config ~view:3 ~seq:42 in
  check_int "c+1 collectors" 3 (List.length cs);
  check "no primary" false (List.mem (Collectors.primary ~config ~view:3) cs);
  check "distinct" true (List.sort_uniq compare cs = List.sort compare cs);
  check "in range" true (List.for_all (fun r -> r >= 0 && r < Config.n config) cs);
  (* Deterministic. *)
  check "deterministic" true (cs = Collectors.c_collectors ~config ~view:3 ~seq:42)

let test_collectors_rotate_with_seq () =
  let distinct =
    List.sort_uniq compare
      (List.concat_map
         (fun seq -> Collectors.c_collectors ~config ~view:0 ~seq)
         (List.init 50 (fun i -> i)))
  in
  (* Load spreads over many replicas (paper: round-robin revolving). *)
  check "spreads load" true (List.length distinct > 10)

let test_collectors_differ_from_e_collectors () =
  (* Different salts: C- and E-collector groups are chosen independently. *)
  let all_same =
    List.for_all
      (fun seq ->
        Collectors.c_collectors ~config ~view:0 ~seq
        = Collectors.e_collectors ~config ~view:0 ~seq)
      (List.init 20 (fun i -> i + 1))
  in
  check "independent groups" false all_same

let test_slow_path_primary_last () =
  let sc = Collectors.slow_path_collectors ~config ~view:7 ~seq:9 in
  check_int "primary is last" (Collectors.primary ~config ~view:7)
    (List.nth sc (List.length sc - 1))

let test_rank () =
  check "rank found" true (Collectors.rank [ 5; 9; 2 ] 9 = Some 1);
  check "rank missing" true (Collectors.rank [ 5; 9; 2 ] 7 = None)

(* ------------------------------------------------------------------ *)
(* Batching *)

let test_batching_adapts () =
  let b = Batching.create (Config.sbft ~f:1 ~c:0) in
  check_int "starts at 1" 1 (Batching.batch_size b);
  for _ = 1 to 50 do
    Batching.observe_pending b 200
  done;
  check "grows under load" true (Batching.batch_size b > 10);
  check "clamped at max" true (Batching.batch_size b <= 64);
  for _ = 1 to 100 do
    Batching.observe_pending b 0
  done;
  check_int "decays back" 1 (Batching.batch_size b)

(* ------------------------------------------------------------------ *)
(* Types: hashing and sizes *)

let req op : Types.request = { client = 10; timestamp = 1; op; signature = String.make 256 's' }

let test_block_hash_sensitivity () =
  let reqs = [ req "a"; req "b" ] in
  let h = Types.block_hash ~seq:1 ~view:0 ~reqs in
  check_int "32 bytes" 32 (String.length h);
  check "seq matters" false (h = Types.block_hash ~seq:2 ~view:0 ~reqs);
  check "view matters" false (h = Types.block_hash ~seq:1 ~view:1 ~reqs);
  check "reqs matter" false (h = Types.block_hash ~seq:1 ~view:0 ~reqs:[ req "a" ]);
  check "order matters" false
    (h = Types.block_hash ~seq:1 ~view:0 ~reqs:[ req "b"; req "a" ]);
  check "deterministic" true (h = Types.block_hash ~seq:1 ~view:0 ~reqs)

let test_message_sizes () =
  let reqs = [ req (String.make 100 'x') ] in
  let sizes =
    [
      Types.size (Types.Request (req "op"));
      Types.size (Types.Pre_prepare { seq = 1; view = 0; reqs });
      Types.size (Types.Full_commit_proof { seq = 1; view = 0; sigma = Sbft_crypto.Field.one });
      Types.size (Types.Get_block { seq = 1; replica = 0 });
    ]
  in
  check "all positive" true (List.for_all (fun s -> s > 0) sizes);
  (* A pre-prepare with a big batch dwarfs a commit proof. *)
  let big = Types.Pre_prepare { seq = 1; view = 0; reqs = List.init 64 (fun _ -> req (String.make 2000 'x')) } in
  check "batch dominates" true
    (Types.size big > 50 * Types.size (Types.Full_commit_proof { seq = 1; view = 0; sigma = Sbft_crypto.Field.one }));
  (* Requests are dominated by the RSA signature for small ops. *)
  check "request >= signature size" true
    (Types.size (Types.Request (req "x")) >= Sbft_crypto.Pki.signature_size)

let test_kind_strings () =
  check "pre-prepare" true (Types.kind (Types.Pre_prepare { seq = 1; view = 0; reqs = [] }) = "pre-prepare");
  check "request" true (Types.kind (Types.Request (req "x")) = "request")

(* ------------------------------------------------------------------ *)
(* Keys / request authentication *)

let test_request_authentication () =
  let config = Config.sbft ~f:1 ~c:0 in
  let rng = Sbft_sim.Rng.create 11L in
  let keys, _replicas, clients = Keys.setup rng ~config ~num_clients:2 in
  let n = Config.n config in
  let make_req kp client op =
    let r = { Types.client; timestamp = 5; op; signature = "" } in
    { r with Types.signature = Sbft_crypto.Pki.sign kp (Types.request_digest r) }
  in
  let good = make_req clients.(0) n "op" in
  check "valid request" true (Keys.verify_request keys good);
  check "tampered op" false
    (Keys.verify_request keys { good with Types.op = "evil" });
  check "tampered timestamp" false
    (Keys.verify_request keys { good with Types.timestamp = 6 });
  (* Signed with the wrong client's key. *)
  let wrong_key = make_req clients.(1) n "op" in
  check "wrong key" false (Keys.verify_request keys wrong_key);
  (* Client id out of range. *)
  check "bad client id" false
    (Keys.verify_request keys { good with Types.client = n + 99 });
  check "replica id as client" false
    (Keys.verify_request keys { good with Types.client = 0 })

(* ------------------------------------------------------------------ *)
(* Run-scoped memos *)

(* The cluster's hash-to-field memo answers exactly what the cold path
   computes, for each message kind the replicas sign, and never holds
   more than [points_cap] messages. *)
let test_points_memo () =
  let config = Config.sbft ~f:1 ~c:0 in
  let keys, _, _ = Keys.setup (Sbft_sim.Rng.create 11L) ~config ~num_clients:1 in
  let h = Types.block_hash ~seq:3 ~view:0 ~reqs:[ req "x" ] in
  let tau = Sbft_crypto.Threshold.hash_to_field "tau" in
  let messages =
    [
      ("h", h);
      ("tau2", Types.tau2_message tau);
      ("pi", Types.pi_message ~seq:3 ~digest:h);
    ]
  in
  List.iter
    (fun (name, msg) ->
      let cold = Sbft_crypto.Threshold.hash_to_field msg in
      let memo () = Sbft_crypto.Field.equal cold (Keys.hash_to_field keys msg) in
      check (name ^ " miss") true (memo ());
      check (name ^ " hit") true (memo ()))
    messages;
  for i = 1 to Keys.points_cap + 10 do
    ignore (Keys.hash_to_field keys (string_of_int i) : Sbft_crypto.Field.t);
    check "bounded" true (Hashtbl.length keys.Keys.points <= Keys.points_cap)
  done

(* The request-authentication memo belongs to one cluster's keys: a
   request that cluster A's keys accept is still checked afresh under
   cluster B's keys, whose client key for the same id differs. *)
let test_verify_memo_per_cluster () =
  let config = Config.sbft ~f:1 ~c:0 in
  let keys_a, _, clients_a = Keys.setup (Sbft_sim.Rng.create 11L) ~config ~num_clients:1 in
  let keys_b, _, _ = Keys.setup (Sbft_sim.Rng.create 12L) ~config ~num_clients:1 in
  let r = { Types.client = Config.n config; timestamp = 1; op = "op"; signature = "" } in
  let r = { r with Types.signature = Sbft_crypto.Pki.sign clients_a.(0) (Types.request_digest r) } in
  check "equal copy under B" false (Keys.verify_request keys_b { r with Types.op = r.Types.op });
  check "A accepts" true (Keys.verify_request keys_a r);
  check "B rejects after A" false (Keys.verify_request keys_b r);
  check "A still accepts" true (Keys.verify_request keys_a r)

(* The execution charge is computed once per (seq, requests' ops) and is
   exact per block: a block holding a duplicate request (it executes as
   the no-op "") and a block holding the null filler (op "") at the same
   seq execute the same ops but are charged differently.  A memo keyed
   by the executed ops would hand the second block the first one's
   charge. *)
let test_exec_charge_exact () =
  let store = Sbft_store.Kv_service.create () in
  Sbft_store.Auth_store.set_cache store (Sbft_store.Auth_store.new_cache ());
  let calls = ref 0 in
  let exec_cost reqs =
    incr calls;
    Cluster.kv_service.Cluster.exec_cost reqs
  in
  let op =
    Sbft_store.Kv_op.encode
      (Sbft_store.Kv_op.Batch
         (List.init 8 (fun i ->
              Sbft_store.Kv_op.Put { key = string_of_int i; value = "v" })))
  in
  let duplicate = [ { (req op) with Types.client = 5 } ] in
  let filler = [ View_change.null_request ] in
  let charge reqs = Types.exec_charge store ~exec_cost ~seq:7 reqs in
  let expect reqs = Cluster.kv_service.Cluster.exec_cost reqs in
  check "charges differ" false (Int.equal (expect duplicate) (expect filler));
  check_int "duplicate-request block" (expect duplicate) (charge duplicate);
  check_int "null-filler block" (expect filler) (charge filler);
  check_int "each computed once" 2 !calls;
  check_int "memo hit" (expect duplicate) (charge duplicate);
  check_int "no recompute on a hit" 2 !calls;
  check_int "other seq misses" (expect duplicate)
    (Types.exec_charge store ~exec_cost ~seq:8 duplicate);
  check_int "computed for the new seq" 3 !calls

(* ------------------------------------------------------------------ *)
(* Cluster.agreement *)

(* Replicas reduced to (executed height, state digest), with no
   committed blocks, checked against the pairwise definition: any two
   replicas at the same positive height hold the same digest. *)
let pairwise_agreement replicas =
  let n = Array.length replicas in
  let ok = ref true in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let li, di = replicas.(i) and lj, dj = replicas.(j) in
      if li = lj && li > 0 && not (String.equal di dj) then ok := false
    done
  done;
  !ok

let agreement_prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:500 ~name:"agreement equals the pairwise digest check"
       ~print:(fun rs ->
         String.concat " "
           (Array.to_list (Array.map (fun (le, d) -> Printf.sprintf "%d:%s" le d) rs)))
       QCheck2.Gen.(
         array_size (int_bound 12)
           (pair (int_bound 3) (map (String.make 1) (char_range 'a' 'c'))))
       (fun replicas ->
         Cluster.agreement ~last_executed:fst
           ~committed_block:(fun _ _ -> None)
           ~state_digest:snd replicas
         = pairwise_agreement replicas))

let () =
  Alcotest.run "sbft_core_units"
    [
      ( "config",
        [
          Alcotest.test_case "arithmetic" `Quick test_config_arithmetic;
          Alcotest.test_case "presets" `Quick test_config_presets;
          Alcotest.test_case "validate" `Quick test_config_validate;
        ] );
      ( "collectors",
        [
          Alcotest.test_case "primary rotation" `Quick test_primary_rotation;
          Alcotest.test_case "basic" `Quick test_collectors_basic;
          Alcotest.test_case "rotation over seq" `Quick test_collectors_rotate_with_seq;
          Alcotest.test_case "c vs e groups" `Quick test_collectors_differ_from_e_collectors;
          Alcotest.test_case "primary last on slow path" `Quick test_slow_path_primary_last;
          Alcotest.test_case "rank" `Quick test_rank;
        ] );
      ("batching", [ Alcotest.test_case "adapts" `Quick test_batching_adapts ]);
      ( "types",
        [
          Alcotest.test_case "block hash" `Quick test_block_hash_sensitivity;
          Alcotest.test_case "sizes" `Quick test_message_sizes;
          Alcotest.test_case "kinds" `Quick test_kind_strings;
        ] );
      ("keys", [ Alcotest.test_case "request auth" `Quick test_request_authentication ]);
      ( "memos",
        [
          Alcotest.test_case "hash-to-field memo" `Quick test_points_memo;
          Alcotest.test_case "verify memo per cluster" `Quick test_verify_memo_per_cluster;
          Alcotest.test_case "exec charge exact" `Quick test_exec_charge_exact;
        ] );
      ("agreement", [ agreement_prop ]);
    ]
