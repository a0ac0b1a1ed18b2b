(* Unit tests for the smaller core-protocol components: configuration
   arithmetic, collector selection, adaptive batching, message hashing
   and size accounting, request authentication, client-request intake,
   and the end-of-run agreement check. *)

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
let keys, _, _ = Keys.setup (Sbft_sim.Rng.create 1L) ~config ~num_clients:1

let test_primary_rotation () =
  check_int "view 0" 0 (Collectors.primary ~config ~view:0);
  check_int "view 5" 5 (Collectors.primary ~config ~view:5);
  check_int "wraps" 1 (Collectors.primary ~config ~view:(Config.n config + 1))

let test_collectors_basic () =
  let cs = Collectors.c_collectors keys ~view:3 ~seq:42 in
  check_int "c+1 collectors" 3 (List.length cs);
  check "no primary" false (List.mem (Collectors.primary ~config ~view:3) cs);
  check "distinct" true (List.sort_uniq compare cs = List.sort compare cs);
  check "in range" true (List.for_all (fun r -> r >= 0 && r < Config.n config) cs);
  (* Deterministic. *)
  check "deterministic" true (cs = Collectors.c_collectors keys ~view:3 ~seq:42)

let test_collectors_rotate_with_seq () =
  let distinct =
    List.sort_uniq compare
      (List.concat_map
         (fun seq -> Collectors.c_collectors keys ~view:0 ~seq)
         (List.init 50 (fun i -> i)))
  in
  (* Load spreads over many replicas (paper: round-robin revolving). *)
  check "spreads load" true (List.length distinct > 10)

let test_collectors_differ_from_e_collectors () =
  (* Different salts: C- and E-collector groups are chosen independently. *)
  let all_same =
    List.for_all
      (fun seq ->
        Collectors.c_collectors keys ~view:0 ~seq
        = Collectors.e_collectors keys ~view:0 ~seq)
      (List.init 20 (fun i -> i + 1))
  in
  check "independent groups" false all_same

let test_slow_path_primary_last () =
  let sc = Collectors.slow_path_collectors keys ~view:7 ~seq:9 in
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
(* Client-request intake *)

(* Run [f] in a handler on node 0 at virtual time [at]. *)
let in_handler engine ~at f =
  let result = ref None in
  Sbft_sim.Engine.dispatch engine ~dst:0 ~at (fun ctx -> result := Some (f ctx));
  Sbft_sim.Engine.run_all engine;
  match !result with Some x -> x | None -> Alcotest.fail "handler did not run"

let intake_fixture () =
  let config = Config.sbft ~f:1 ~c:0 in
  let engine = Sbft_sim.Engine.create ~num_nodes:1 ~seed:3L () in
  let keys, _, clients = Keys.setup (Sbft_sim.Engine.rng engine) ~config ~num_clients:2 in
  let n = Config.n config in
  let req i ts =
    let r = { Types.client = n + i; timestamp = ts; op = Printf.sprintf "op%d-%d" i ts; signature = "" } in
    { r with Types.signature = Sbft_crypto.Pki.sign clients.(i) (Types.request_digest r) }
  in
  (Intake.create config, engine, keys, req)

let ids reqs = List.map (fun (r : Types.request) -> (r.Types.client, r.Types.timestamp)) reqs

(* The primary queues each authenticated request once, in arrival
   order; a backup forwards each once; an executed one is answered
   from the table. *)
let test_intake_queue () =
  let t, engine, keys, req = intake_fixture () in
  let queued = ref 0 and forwarded = ref 0 and replied = ref [] in
  let submit ~primary r =
    in_handler engine ~at:0 (fun ctx ->
        Intake.on_request t ctx keys r ~primary
          ~reply:(fun ce -> replied := ce :: !replied)
          ~queued:(fun () -> incr queued)
          ~forward:(fun () -> incr forwarded))
  in
  let a = req 0 1 and b = req 1 1 and a2 = req 0 2 in
  List.iter (submit ~primary:true) [ a; b; a; a2; b ];
  submit ~primary:true { a with Types.op = "forged" };
  check_int "three distinct authentic requests queued" 3 !queued;
  check_int "pending" 3 (Intake.pending_length t);
  check "take pops the oldest" true (ids (Intake.take t 2) = ids [ a; b ]);
  check "take stops at the queue's end" true (ids (Intake.take t 5) = ids [ a2 ]);
  let c = req 1 2 in
  submit ~primary:false c;
  submit ~primary:false c;
  check_int "a backup forwards once" 1 !forwarded;
  Intake.record_rows t ~seq:3 [ c ] [ "out" ] ~fresh:ignore;
  submit ~primary:false c;
  match !replied with
  | [ ce ] ->
      check "reply carries the executed row" true
        (String.equal ce.Sbft_store.Block_store.ce_value "out" && ce.ce_seq = 3)
  | l -> Alcotest.failf "want one reply, got %d" (List.length l)

(* Re-drive goes in (client, timestamp) order whatever the arrival
   order; the primary skips requests already pending. *)
let test_intake_redrive () =
  let t, _, _, req = intake_fixture () in
  let r1_7 = req 0 7 and r1_3 = req 0 3 and r2_5 = req 1 5 in
  List.iter (Intake.mark_outstanding t) [ r2_5; r1_7; View_change.null_request; r1_3 ];
  let sent = ref [] in
  Intake.redrive t ~primary:false ~forward:(fun r -> sent := r :: !sent);
  check "backup forwards in order" true (ids (List.rev !sent) = ids [ r1_3; r1_7; r2_5 ]);
  Intake.redrive t ~primary:true ~forward:(fun _ -> Alcotest.fail "primary forwards");
  Intake.redrive t ~primary:true ~forward:(fun _ -> ());
  check "primary queues each once, in order" true
    (ids (Intake.take t 10) = ids [ r1_3; r1_7; r2_5 ]);
  Intake.clear_outstanding t r1_7;
  Intake.redrive t ~primary:true ~forward:(fun _ -> ());
  check "an executed request is not re-driven" true (ids (Intake.take t 10) = ids [ r1_3; r2_5 ])

(* The exactly-once test: the first execution of a request is recorded
   with its position in the block; a later copy runs as a no-op. *)
let test_intake_exactly_once () =
  let t, _, _, req = intake_fixture () in
  let r = req 0 3 in
  let rows = ref [] in
  Intake.record_rows t ~seq:4 [ View_change.null_request; r; r ] [ ""; "a"; "b" ]
    ~fresh:(fun row -> rows := row :: !rows);
  (match !rows with
  | [ ce ] ->
      check "first copy recorded at index 1" true
        (ce.Sbft_store.Block_store.ce_index = 1 && String.equal ce.ce_value "a" && ce.ce_seq = 4)
  | l -> Alcotest.failf "want one row, got %d" (List.length l));
  let client = r.Types.client in
  check "same timestamp executed" true (Intake.executed_before t ~client ~timestamp:3);
  check "older timestamp executed" true (Intake.executed_before t ~client ~timestamp:2);
  check "newer timestamp not" false (Intake.executed_before t ~client ~timestamp:4);
  check "other client not" false (Intake.executed_before t ~client:(client + 1) ~timestamp:1);
  let next = req 0 4 in
  check "a re-proposed copy becomes a no-op" true
    (Intake.exec_ops t [ r; next; View_change.null_request ]
    = [ ""; next.Types.op; View_change.null_request.Types.op ]);
  Intake.adopt_rows t [];
  check "adopting a checkpoint's rows replaces the table" false
    (Intake.executed_before t ~client ~timestamp:3)

(* The view-change timeout doubles with each view change the clock
   starts, up to 2^6, and starts over on entering a view. *)
let test_intake_liveness_backoff () =
  let t, engine, _, req = intake_fixture () in
  let due at = in_handler engine ~at (fun ctx -> Intake.liveness_due t ctx) in
  in_handler engine ~at:0 (fun ctx -> Intake.note_progress t ctx);
  check "nothing waiting, nothing due" false (due (Sbft_sim.Engine.sec 1000));
  Intake.mark_outstanding t (req 0 1);
  let base = Config.view_change_timeout in
  (* Progress does not reset the backoff: each round notes progress and
     waits for the next, doubled timeout. *)
  let from = ref (Sbft_sim.Engine.sec 1000) in
  for b = 0 to 7 do
    in_handler engine ~at:!from (fun ctx -> Intake.note_progress t ctx);
    let timeout = base * (1 lsl min 6 b) in
    check (Printf.sprintf "not due at 2^%d timeouts" (min 6 b)) false (due (!from + timeout));
    check (Printf.sprintf "due just after 2^%d timeouts" (min 6 b)) true
      (due (!from + timeout + 1));
    from := !from + timeout + 1
  done;
  let entered = !from + base in
  in_handler engine ~at:entered (fun ctx -> Intake.enter_view t ctx);
  check "entering a view resets the backoff" false (due (entered + base));
  check "one timeout after entering" true (due (entered + base + 1))

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

(* The cluster's request-digest and block-hash memos key by value: each
   answer equals the pure [Types] function for equal but physically
   distinct request lists, for an equivocated list at the same
   (seq, view), and for requests rebuilt from the ledger without their
   signatures. *)
let test_block_memo () =
  let config = Config.sbft ~f:1 ~c:0 in
  let keys, _, _ = Keys.setup (Sbft_sim.Rng.create 11L) ~config ~num_clients:1 in
  let fresh s = String.init (String.length s) (String.get s) in
  let reqs = [ req "a"; req "b" ] in
  let copy = List.map (fun (r : Types.request) -> { r with op = fresh r.op }) reqs in
  let equivocated = List.rev reqs @ [ View_change.null_request ] in
  let ledger = List.map (fun (r : Types.request) -> { r with signature = "" }) reqs in
  List.iter
    (fun (name, reqs) ->
      List.iter
        (fun (r : Types.request) ->
          check (name ^ " request digest") true
            (String.equal (Types.request_digest r) (Keys.request_digest keys r)))
        reqs;
      check (name ^ " block hash") true
        (String.equal
           (Types.block_hash ~seq:4 ~view:1 ~reqs)
           (Keys.block_hash keys ~seq:4 ~view:1 ~reqs)))
    [ ("original", reqs); ("equal copy", copy); ("equivocated", equivocated);
      ("ledger", ledger); ("original again", reqs) ];
  check "equivocation changes h" false
    (String.equal
       (Keys.block_hash keys ~seq:4 ~view:1 ~reqs)
       (Keys.block_hash keys ~seq:4 ~view:1 ~reqs:equivocated));
  check "ledger copy keeps h" true
    (String.equal
       (Keys.block_hash keys ~seq:4 ~view:1 ~reqs)
       (Keys.block_hash keys ~seq:4 ~view:1 ~reqs:ledger))

(* The request verdict keys on the signature: the same fields under a
   forged signature are rejected whether the signed request was checked
   first or not. *)
let test_verify_memo_signature () =
  let config = Config.sbft ~f:1 ~c:0 in
  let setup () = Keys.setup (Sbft_sim.Rng.create 11L) ~config ~num_clients:1 in
  let keys, _, clients = setup () in
  let r = { Types.client = Config.n config; timestamp = 1; op = "op"; signature = "" } in
  let signed = { r with signature = Sbft_crypto.Pki.sign clients.(0) (Types.request_digest r) } in
  let forged = { signed with signature = String.make (String.length signed.signature) 'x' } in
  check "signed accepted" true (Keys.verify_request keys signed);
  check "forged rejected after signed" false (Keys.verify_request keys forged);
  let keys, _, _ = setup () in
  check "forged rejected first" false (Keys.verify_request keys forged);
  check "signed accepted after forged" true (Keys.verify_request keys signed)

(* Clearing at a stable checkpoint empties the memos once per new
   checkpoint and changes no value: after the clear the digest is
   computed afresh (a new string, not the memo's), and equal. *)
let test_memo_checkpoint_clear () =
  let config = Config.sbft ~f:1 ~c:0 in
  let keys, _, clients = Keys.setup (Sbft_sim.Rng.create 11L) ~config ~num_clients:1 in
  let r = { Types.client = Config.n config; timestamp = 1; op = "op"; signature = "" } in
  let d = Keys.request_digest keys r in
  let signed = { r with signature = Sbft_crypto.Pki.sign clients.(0) d } in
  let point = Keys.hash_to_field keys "m" in
  let points () = Hashtbl.length keys.Keys.points in
  Keys.clear_at_checkpoint keys ~seq:0;
  check "no new checkpoint: kept" true (Keys.request_digest keys r == d);
  Keys.clear_at_checkpoint keys ~seq:128;
  check_int "points cleared" 0 (points ());
  let d' = Keys.request_digest keys r in
  check "digest recomputed" false (d' == d);
  check "same digest" true (String.equal d' d);
  check "same point" true (Sbft_crypto.Field.equal point (Keys.hash_to_field keys "m"));
  check "still verifies" true (Keys.verify_request keys signed);
  Keys.clear_at_checkpoint keys ~seq:128;
  Keys.clear_at_checkpoint keys ~seq:64;
  check "once per checkpoint" true (Keys.request_digest keys r == d');
  check_int "points kept" 1 (points ())

(* The digest memo keys on the fields the digest reads, not the
   signature: the client's digest of its unsigned request is the very
   string (a memo hit, [==]) every replica gets for the signed one, so
   the op is hashed once per cluster.  Another op at the same (client,
   timestamp) still misses and gets its own digest. *)
let test_digest_memo_unsigned () =
  let config = Config.sbft ~f:1 ~c:0 in
  let keys, _, clients = Keys.setup (Sbft_sim.Rng.create 11L) ~config ~num_clients:1 in
  let r = { Types.client = Config.n config; timestamp = 1; op = "op"; signature = "" } in
  let d = Keys.request_digest keys r in
  let signed = { r with signature = Sbft_crypto.Pki.sign clients.(0) d } in
  check "signed is a hit" true (Keys.request_digest keys signed == d);
  check "verified" true (Keys.verify_request keys signed);
  let other = { signed with op = "other" } in
  check "other op misses" true
    (String.equal (Types.request_digest other) (Keys.request_digest keys other));
  check "other op differs" false (String.equal d (Keys.request_digest keys other))

(* Collector groups from a warm memo equal a fresh cluster's.  The fresh
   cluster is asked for E groups first, so a memo that lost the salt
   would answer C with the E group. *)
let test_collector_memo () =
  let pairs = List.init 200 (fun i -> (i mod 7, (i * 13) + 1)) in
  let groups keys (view, seq) =
    let c = Collectors.c_collectors keys ~view ~seq in
    let e = Collectors.e_collectors keys ~view ~seq in
    (c, e, Collectors.slow_path_collectors keys ~view ~seq)
  in
  List.iter (fun pair -> ignore (groups keys pair)) pairs;
  let warm = List.map (groups keys) pairs in
  let fresh, _, _ = Keys.setup (Sbft_sim.Rng.create 2L) ~config ~num_clients:1 in
  let same name a b = check name true (List.equal Int.equal a b) in
  List.iter2
    (fun (view, seq) (c, e, s) ->
      same "e group" e (Collectors.e_collectors fresh ~view ~seq);
      same "c group" c (Collectors.c_collectors fresh ~view ~seq);
      same "slow path" s (Collectors.slow_path_collectors fresh ~view ~seq))
    pairs warm

(* The execution charge is computed once per (seq, requests' ops) and is
   exact per block: a block holding a duplicate request (it executes as
   the no-op "") and a block holding the null filler (op "") at the same
   seq execute the same ops but are charged differently.  A memo keyed
   by the executed ops would hand the second block the first one's
   charge. *)
let test_exec_charge_exact () =
  let cache = Sbft_store.Auth_store.new_cache () in
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
  (* The CPU [Priced.execute] charges for block [seq] of a fresh store
     on the shared cache, each block executing as the no-op "". *)
  let charge ?(seq = 1) reqs =
    let store = Sbft_store.Kv_service.create () in
    Sbft_store.Auth_store.set_cache store cache;
    for s = 1 to seq - 1 do
      ignore (Sbft_store.Auth_store.execute_block store ~seq:s ~ops:[ "" ])
    done;
    let engine = Sbft_sim.Engine.create ~num_nodes:1 ~seed:1L () in
    in_handler engine ~at:0 (fun ctx ->
        ignore (Priced.execute ctx store ~exec_cost ~seq reqs ~ops:[ "" ]);
        Sbft_sim.Engine.ctx_now ctx)
  in
  let expect reqs = Cluster.kv_service.Cluster.exec_cost reqs in
  check "charges differ" false (Int.equal (expect duplicate) (expect filler));
  check_int "duplicate-request block" (expect duplicate) (charge duplicate);
  check_int "null-filler block" (expect filler) (charge filler);
  check_int "each computed once" 2 !calls;
  check_int "memo hit" (expect duplicate) (charge duplicate);
  check_int "no recompute on a hit" 2 !calls;
  check_int "other seq misses" (expect duplicate) (charge ~seq:2 duplicate);
  check_int "computed for the new seq" 3 !calls

(* Two blocks at one (seq, pre-state root) whose ops differ only by a
   trailing no-op, the pair behind
   test/corpus/weak-sigma-agreement.schedule: the execution cache hashes
   only the seq and the root, so they share a bucket, and its exact key
   must still hand each store its own outputs. *)
let test_exec_cache_exact () =
  let module A = Sbft_store.Auth_store in
  let cache = A.new_cache () in
  let store () =
    let s = Sbft_store.Kv_service.create () in
    A.set_cache s cache;
    s
  in
  let a = store () and b = store () and c = store () in
  check "same pre-state" true (String.equal (A.digest a) (A.digest b));
  let exec s ops = List.length (A.execute_block s ~seq:1 ~ops) in
  check_int "one op" 1 (exec a [ "x" ]);
  check_int "one op and a no-op" 2 (exec b [ "x"; "" ]);
  check "different blocks, different digests" false
    (String.equal (A.digest a) (A.digest b));
  check_int "a hit returns the first block's outputs" 1 (exec c [ "x" ]);
  check "and its state" true (String.equal (A.digest a) (A.digest c))

(* Each cache entry is made by one store and taken by the others; the
   last of [takers - 1] takes removes it.  A later store misses: it
   executes for real (its state is not the shared one) and gets the
   same outputs, digest and charge. *)
let test_exec_cache_takers () =
  let module A = Sbft_store.Auth_store in
  let cache = A.new_cache ~takers:3 () in
  let store () =
    let s = Sbft_store.Kv_service.create () in
    A.set_cache s cache;
    s
  in
  let a = store () and b = store () and c = store () and late = store () in
  let calls = ref 0 in
  let charge s = A.exec_charge s ~seq:1 ~ops:[ "x" ] (fun () -> incr calls; 42) in
  let put k = Sbft_store.Kv_service.put ~key:k ~value:"v" in
  let exec s = A.execute_block s ~seq:1 ~ops:[ put "x"; put "y" ] in
  let outputs = exec a in
  check_int "first charge computed" 42 (charge a);
  List.iter
    (fun s ->
      check "hit: same outputs" true (List.equal String.equal outputs (exec s));
      check "hit: shared state" true (A.state s == A.state a);
      check_int "hit: charge" 42 (charge s))
    [ b; c ];
  check_int "charge computed once for three takers" 1 !calls;
  check "late store: same outputs" true (List.equal String.equal outputs (exec late));
  check "late store: executed itself" false (A.state late == A.state a);
  check "late store: same digest" true (String.equal (A.digest late) (A.digest a));
  check_int "late store: same charge" 42 (charge late);
  check_int "late store: charge recomputed" 2 !calls

(* [gc_below] drops the shared entries below the horizon, taken or not:
   a store behind the horizon re-executes, one above it still hits. *)
let test_exec_cache_gc () =
  let module A = Sbft_store.Auth_store in
  let cache = A.new_cache ~takers:4 () in
  let store () =
    let s = Sbft_store.Kv_service.create () in
    A.set_cache s cache;
    s
  in
  let a = store () and b = store () in
  let calls = ref 0 in
  let charge s seq = A.exec_charge s ~seq ~ops:[ "x" ] (fun () -> incr calls; seq) in
  let put k = Sbft_store.Kv_service.put ~key:k ~value:"v" in
  let outputs1 = A.execute_block a ~seq:1 ~ops:[ put "x" ] in
  let after1 = A.state a in
  ignore (A.execute_block a ~seq:2 ~ops:[ put "y" ]);
  ignore (charge a 1 + charge a 2);
  A.gc_below a ~seq:2;
  check "below the horizon: same outputs" true
    (List.equal String.equal outputs1 (A.execute_block b ~seq:1 ~ops:[ put "x" ]));
  check "below the horizon: executed again" false (A.state b == after1);
  check_int "below the horizon: same charge" 1 (charge b 1);
  check_int "below the horizon: charge recomputed" 3 !calls;
  ignore (A.execute_block b ~seq:2 ~ops:[ put "y" ]);
  check "at the horizon: still shared" true (A.state b == A.state a);
  check_int "at the horizon: charge hit" 2 (charge b 2);
  check_int "at the horizon: not recomputed" 3 !calls

(* ------------------------------------------------------------------ *)
(* Votes *)

(* [Votes] against a reference list-set, on random streams of
   add-if-absent and reset over ids 0..300 — past the initial size, so
   the set grows several times. *)
let votes_prop =
  let max_id = 300 in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~name:"votes match a reference set"
       ~print:(fun ops ->
         String.concat " "
           (List.map (function Some i -> string_of_int i | None -> "reset") ops))
       QCheck2.Gen.(
         list_size (int_bound 400)
           (frequency [ (20, map Option.some (int_bound max_id)); (1, pure None) ]))
       (fun ops ->
         let v = Votes.create () in
         let agrees reference =
           (not (Votes.mem v (-1)))
           && List.for_all
                (fun id -> Bool.equal (Votes.mem v id) (List.mem id reference))
                (List.init (max_id + 2) Fun.id)
         in
         let rec go reference = function
           | [] -> agrees reference
           | None :: rest ->
               agrees reference
               &&
               (Votes.reset v;
                Int.equal (Votes.count v) 0 && go [] rest)
           | Some id :: rest ->
               Votes.add v id;
               let reference = if List.mem id reference then reference else id :: reference in
               Votes.mem v id
               && Int.equal (Votes.count v) (List.length reference)
               && go reference rest
         in
         go [] ops))

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

(* ------------------------------------------------------------------ *)
(* Priced: the price table *)

module CM = Sbft_crypto.Cost_model
module Th = Sbft_crypto.Threshold

(* The CPU time [run] charges alone in a handler on a fresh node at
   [cpu_scale = scale], with the Tally just reset. *)
let charged_by ?(scale = 1.0) run =
  let engine = Sbft_sim.Engine.create ~num_nodes:1 ~seed:1L () in
  Sbft_sim.Engine.set_cpu_scale engine 0 scale;
  CM.Tally.reset ();
  in_handler engine ~at:0 (fun ctx ->
      run ctx;
      Sbft_sim.Engine.ctx_now ctx)

let tally = Alcotest.(check (list (pair string int)))

(* A replica-side row: the labels it grows and by how much; the time
   charged is their sum. *)
let price_row (name, labels, run) =
  let charged = charged_by run in
  check_int (name ^ ": time charged") (List.fold_left (fun acc (_, t) -> acc + t) 0 labels) charged;
  tally (name ^ ": tally") labels (CM.Tally.snapshot ())

(* A client-side row: [price] charged, no label grown. *)
let untallied (name, price, run) =
  check_int (name ^ ": time charged") price (charged_by run);
  tally (name ^ ": no label") [] (CM.Tally.snapshot ())

(* A fresh n = 4 (f = 1, c = 0) cluster's keys: no memo is warm.  The
   seed is fixed, so every call deals the same key material. *)
let price_keys ?(config = Config.sbft ~f:1 ~c:0) () =
  Keys.setup (Sbft_sim.Rng.create 5L) ~config ~num_clients:1

let all_shares (rk : Keys.replica_keys array) sk ~msg =
  Array.to_list (Array.map (fun r -> Th.share_sign (sk r) ~msg) rk)

let tau_sk (r : Keys.replica_keys) = r.Keys.tau_sk

(* A τ combine (k = 3) of all four replicas' shares on a fresh cluster,
   after [warm] combined them once, or with signer 1's share forged. *)
let combine ?config ?(group = false) ?(warm = false) ?(forge = false) ctx =
  let keys, rk, _ = price_keys ?config () in
  let shares = all_shares rk tau_sk ~msg:"m" in
  if warm then ignore (Th.combine_verified keys.Keys.tau ~msg:"m" shares);
  let shares =
    if forge then Th.forge_invalid_share ~signer:1 :: List.tl shares else shares
  in
  let k = Config.tau_threshold keys.Keys.config in
  ignore (Priced.combine ctx keys keys.Keys.tau ~k ~group ~msg:"m" shares)

let test_price_table () =
  let keys, rk, clients = price_keys () in
  let signed i =
    let client = Config.n keys.Keys.config in
    let r = { Types.client; timestamp = i; op = "op"; signature = "" } in
    { r with signature = Sbft_crypto.Pki.sign clients.(0) (Types.request_digest r) }
  in
  let reqs = [ signed 1; signed 2; signed 3 ] in
  let sign scheme sk msg = Option.get (Th.combine scheme ~msg (all_shares rk sk ~msg)) in
  let h = "block" in
  let sigma_h = sign keys.Keys.sigma (fun r -> r.Keys.sigma_sk) h in
  let tau_h = sign keys.Keys.tau tau_sk h in
  let tau_tau = sign keys.Keys.tau tau_sk (Types.tau2_message tau_h) in
  let pi = sign keys.Keys.pi (fun r -> r.Keys.pi_sk) (Types.pi_message ~seq:1 ~digest:"d") in
  let vc = { Types.vc_replica = 0; vc_view = 0; vc_ls = 0; vc_checkpoint = None; vc_slots = [] } in
  let record = Sbft_store.Wal.View_change_started 3 in
  let k = 3 in
  List.iter price_row
    [
      ( "sign_block", [ ("share_sign", 2 * CM.bls_share_sign) ],
        fun ctx -> ignore (Priced.sign_block ctx keys rk.(0) ~h) );
      ( "sign_share", [ ("share_sign", CM.bls_share_sign) ],
        fun ctx -> ignore (Priced.sign_share ctx keys rk.(0).Keys.pi_sk ~msg:h) );
      ( "combine", [ ("combine", CM.bls_combine k); ("combined_verify", CM.bls_verify) ],
        fun ctx -> combine ctx );
      ( "combine, memoized coefficients",
        [ ("combine", CM.bls_combine_cached k); ("combined_verify", CM.bls_verify) ],
        fun ctx -> combine ~warm:true ctx );
      ( "combine, group pricing",
        [ ("combine", CM.group_combine k); ("combined_verify", CM.bls_verify) ],
        fun ctx -> combine ~group:true ctx );
      (* Signer 1's bad share fails the combined check: four fresh share
         checks, then a second combine over signers 2-4. *)
      ( "combine, fallback",
        [
          ("combine", 2 * CM.bls_combine k);
          ("combined_verify", CM.bls_verify);
          ("share_identify", CM.bls_identify 4);
        ],
        fun ctx -> combine ~forge:true ctx );
      ( "combine, pessimistic",
        [ ("combine", CM.bls_combine k); ("share_batch_verify", CM.bls_batch_verify k) ],
        fun ctx ->
          combine ~config:{ (Config.sbft ~f:1 ~c:0) with Config.optimistic_combine = false } ctx );
      ( "verify", [ ("proof_verify", CM.bls_verify) ],
        fun ctx -> check "verifies" true (Priced.verify ctx keys keys.Keys.tau ~msg:h tau_h) );
      ( "verify_cert, fast", [ ("proof_verify", CM.bls_verify) ],
        fun ctx ->
          check "verifies" true (Priced.verify_cert ctx keys ~h (Types.Cert_fast sigma_h)) );
      ( "verify_cert, slow", [ ("proof_verify", 2 * CM.bls_verify) ],
        fun ctx ->
          check "verifies" true
            (Priced.verify_cert ctx keys ~h (Types.Cert_slow (tau_h, tau_tau))) );
      ( "validate_view_changes", [ ("proof_verify", 2 * CM.bls_verify) ],
        fun ctx -> ignore (Priced.validate_view_changes ctx keys [ vc; vc ]) );
      ( "validate_new_view", [ ("proof_verify", 2 * 2 * CM.bls_verify) ],
        fun ctx -> ignore (Priced.validate_new_view ctx keys [ vc; vc ]) );
      ( "verify_requests", [ ("rsa_verify", 3 * CM.rsa_verify) ],
        fun ctx -> check "verified" true (Priced.verify_requests ctx keys reqs) );
      ( "block_hash", [ ("hash", CM.sha256 (Types.requests_bytes reqs)) ],
        fun ctx -> ignore (Priced.block_hash ctx keys ~seq:1 ~view:0 ~reqs) );
      ("hash", [ ("hash", CM.sha256 100) ], fun ctx -> Priced.hash ctx 100);
      ("rsa_sign", [ ("rsa_sign", CM.rsa_sign) ], Priced.rsa_sign);
      ("rsa_verify", [ ("rsa_verify", CM.rsa_verify) ], Priced.rsa_verify);
      ("mac", [ ("mac", CM.message_auth_check) ], Priced.mac);
      ( "merkle_prove", [ ("merkle", CM.merkle_prove 64) ],
        fun ctx -> Priced.merkle_prove ctx ~leaves:64 );
      ( "execute", [ ("exec", 12_345) ],
        fun ctx ->
          ignore
            (Priced.execute ctx (Sbft_store.Kv_service.create ()) ~exec_cost:(fun _ -> 12_345)
               ~seq:1 reqs ~ops:[ ""; ""; "" ]) );
      ("persist", [ ("persist", CM.persist_block 1000) ], fun ctx -> Priced.persist ctx 1000);
      ( "wal_append",
        [ ("wal_append", CM.wal_append (String.length (Sbft_store.Wal.frame record))) ],
        fun ctx -> Priced.wal_append ctx (Sbft_store.Wal.create ()) record );
      ( "wal_fsync", [ ("wal_fsync", CM.wal_fsync_scaled ~scale:3.0) ],
        fun ctx ->
          let wal = Sbft_store.Wal.create () in
          ignore (Sbft_store.Wal.append wal record);
          Priced.wal_fsync ctx wal ~scale:3.0 );
      ( "wal_fsync, clean log", [],
        fun ctx -> Priced.wal_fsync ctx (Sbft_store.Wal.create ()) ~scale:1.0 );
    ];
  List.iter untallied
    [
      ( "sign_request", CM.rsa_sign,
        fun ctx ->
          let unsigned = { (signed 9) with Types.signature = "" } in
          let r = Priced.sign_request ctx keys clients.(0) unsigned in
          check "signed" true (Keys.verify_request keys r) );
      ("verify_reply", CM.rsa_verify, Priced.verify_reply);
      ( "verify_execute_ack", CM.bls_verify + CM.merkle_verify 10,
        fun ctx ->
          ignore
            (Priced.verify_execute_ack ctx keys ~seq:1 ~index:0 ~op:"op" ~value:"v" ~digest:"d"
               ~pi ~proof:"") );
      ( "verify_query_resp", CM.bls_verify + CM.merkle_verify 16,
        fun ctx ->
          ignore
            (Priced.verify_query_resp ctx keys ~seq:1 ~key:"k" ~value:"v" ~digest:"d" ~pi
               ~proof:"") );
    ]

(* At [cpu_scale = 1.5] each charge is scaled and rounded down on its
   own, and the Tally keeps the unscaled price. *)
let test_price_rounding () =
  check_int "sha256 of one byte" 503 (CM.sha256 1);
  check_int "754.5 rounds down" 754 (charged_by ~scale:1.5 (fun ctx -> Priced.hash ctx 1));
  tally "tally unscaled" [ ("hash", 503) ] (CM.Tally.snapshot ());
  let keys, _, _ = price_keys () in
  check_int "client ack: 1.5 ms + 9 us" 1_509_000
    (charged_by ~scale:1.5 (fun ctx ->
         ignore
           (Priced.verify_execute_ack ctx keys ~seq:1 ~index:0 ~op:"op" ~value:"v" ~digest:"d"
              ~pi:Sbft_crypto.Field.one ~proof:"")))

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
      ( "intake",
        [
          Alcotest.test_case "queue dedup and take order" `Quick test_intake_queue;
          Alcotest.test_case "re-drive order" `Quick test_intake_redrive;
          Alcotest.test_case "exactly-once" `Quick test_intake_exactly_once;
          Alcotest.test_case "liveness backoff" `Quick test_intake_liveness_backoff;
        ] );
      ( "memos",
        [
          Alcotest.test_case "hash-to-field memo" `Quick test_points_memo;
          Alcotest.test_case "verify memo per cluster" `Quick test_verify_memo_per_cluster;
          Alcotest.test_case "digest and block memos by value" `Quick test_block_memo;
          Alcotest.test_case "verify memo keys the signature" `Quick test_verify_memo_signature;
          Alcotest.test_case "digest memo ignores the signature" `Quick test_digest_memo_unsigned;
          Alcotest.test_case "collector memo" `Quick test_collector_memo;
          Alcotest.test_case "memos cleared at checkpoints" `Quick test_memo_checkpoint_clear;
          Alcotest.test_case "exec charge exact" `Quick test_exec_charge_exact;
          Alcotest.test_case "exec cache exact" `Quick test_exec_cache_exact;
          Alcotest.test_case "exec cache takers" `Quick test_exec_cache_takers;
          Alcotest.test_case "exec cache gc" `Quick test_exec_cache_gc;
        ] );
      ( "priced",
        [
          Alcotest.test_case "price table" `Quick test_price_table;
          Alcotest.test_case "per-call rounding" `Quick test_price_rounding;
        ] );
      ("votes", [ votes_prop ]);
      ("agreement", [ agreement_prop ]);
    ]
