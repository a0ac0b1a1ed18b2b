(* Tests for the wire codec and the storage substrate: operation
   encoding, authenticated store digests and proofs, snapshots, and the
   block store. *)

open Sbft_wire
open Sbft_store

let check = Alcotest.(check bool)
let check_str = Alcotest.(check string)
let check_int = Alcotest.(check int)

let qtest ?print name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ?print ~name ~count:300 gen prop)

(* ------------------------------------------------------------------ *)
(* Codec *)

let test_codec_scalars () =
  let w = Codec.Writer.create () in
  Codec.Writer.u8 w 0xAB;
  Codec.Writer.u32 w 0xDEADBEEF;
  Codec.Writer.u64 w 0x1234_5678_9ABC_DEF0;
  Codec.Writer.varint w 300;
  Codec.Writer.str w "hello";
  let r = Codec.Reader.of_string (Codec.Writer.contents w) in
  check_int "u8" 0xAB (Codec.Reader.u8 r);
  check_int "u32" 0xDEADBEEF (Codec.Reader.u32 r);
  check_int "u64" 0x1234_5678_9ABC_DEF0 (Codec.Reader.u64 r);
  check_int "varint" 300 (Codec.Reader.varint r);
  check_str "str" "hello" (Codec.Reader.str r);
  check "at end" true (Codec.Reader.at_end r)

let test_codec_truncated () =
  let r = Codec.Reader.of_string "\x01" in
  check "truncated raises" true
    (try
       ignore (Codec.Reader.u32 r);
       false
     with Codec.Reader.Truncated -> true)

(* Length fields [Writer.varint] can never emit: a 9-byte varint with
   the sign bit set (decodes to -1), a 10-byte varint, and max_int (a
   length that overflows [pos + n]). *)
let neg_len = String.make 8 '\xFF' ^ "\x7F"
let long_len = String.make 9 '\x80' ^ "\x01"
let huge_len = String.make 8 '\xFF' ^ "\x3F"

let truncated f =
  match f () with
  | _ -> false
  | exception Codec.Reader.Truncated -> true

let test_codec_hostile_lengths () =
  let rd s = Codec.Reader.of_string s in
  check "negative varint" true (truncated (fun () -> Codec.Reader.varint (rd neg_len)));
  check "10-byte varint" true (truncated (fun () -> Codec.Reader.varint (rd long_len)));
  check "negative raw" true (truncated (fun () -> Codec.Reader.raw (rd "abc") (-1)));
  check "negative str" true (truncated (fun () -> Codec.Reader.str (rd (neg_len ^ "abc"))));
  check "overflowing str" true
    (truncated (fun () -> Codec.Reader.str (rd (huge_len ^ "abc"))));
  check "negative list" true
    (truncated (fun () -> Codec.Reader.list (rd neg_len) Codec.Reader.u8));
  check "negative skip_str" true
    (truncated (fun () -> Codec.Reader.skip_str (rd (neg_len ^ "abc"))));
  check "overflowing skip_str" true
    (truncated (fun () -> Codec.Reader.skip_str (rd (huge_len ^ "abc"))));
  let r = rd "\x02ab\x07" in
  Codec.Reader.skip_str r;
  check_int "skip_str steps over the string" 7 (Codec.Reader.u8 r);
  let w = Codec.Writer.create () in
  Codec.Writer.varint w max_int;
  check_int "max_int still decodes" max_int
    (Codec.Reader.varint (rd (Codec.Writer.contents w)))

let test_codec_list () =
  let w = Codec.Writer.create () in
  Codec.Writer.list w (fun x -> Codec.Writer.u32 w x) [ 1; 2; 3 ];
  let r = Codec.Reader.of_string (Codec.Writer.contents w) in
  Alcotest.(check (list int)) "list" [ 1; 2; 3 ] (Codec.Reader.list r Codec.Reader.u32)

let codec_props =
  [
    qtest "varint roundtrip" QCheck2.Gen.(int_range 0 max_int) (fun v ->
        let w = Codec.Writer.create () in
        Codec.Writer.varint w v;
        let r = Codec.Reader.of_string (Codec.Writer.contents w) in
        Codec.Reader.varint r = v);
    qtest "string roundtrip" QCheck2.Gen.string (fun s ->
        let w = Codec.Writer.create () in
        Codec.Writer.str w s;
        let r = Codec.Reader.of_string (Codec.Writer.contents w) in
        String.equal (Codec.Reader.str r) s);
  ]

(* ------------------------------------------------------------------ *)
(* Kv_op *)

let test_kv_op_roundtrip () =
  let cases =
    [ Kv_op.Put { key = "k"; value = "v" }; Kv_op.Get { key = "q" }; Kv_op.Noop ]
  in
  List.iter
    (fun op ->
      match Kv_op.decode (Kv_op.encode op) with
      | Some op' -> check "roundtrip" true (op = op')
      | None -> Alcotest.fail "decode failed")
    cases;
  check "garbage decode" true (Kv_op.decode "\xFFgarbage" = None);
  check "empty decode" true (Kv_op.decode "" = None)

let test_kv_op_hostile () =
  check "negative batch count" true (Kv_op.decode ("\x03" ^ neg_len) = None);
  check "negative key length" true (Kv_op.decode ("\x01" ^ neg_len ^ "k") = None);
  check "overflowing key length" true (Kv_op.decode ("\x02" ^ huge_len ^ "k") = None);
  let m = Sbft_crypto.Merkle_map.set Sbft_crypto.Merkle_map.empty ~key:"k" ~value:"v" in
  let m', out = Kv_service.apply m ("\x03" ^ neg_len) in
  (* Maps memoize node hashes on demand, so compare their roots, never
     the maps themselves. *)
  check "apply degrades to a no-op" true
    (String.equal (Sbft_crypto.Merkle_map.root m') (Sbft_crypto.Merkle_map.root m)
    && String.equal out "")

(* The decode-then-count [Kv_op.count_encoded] must agree with. *)
let rec reference_count = function
  | Kv_op.Put _ | Get _ | Add _ | Noop -> 1
  | Batch ops -> List.fold_left (fun acc op -> acc + reference_count op) 0 ops

let count_agrees s = Kv_op.count_encoded s = Option.map reference_count (Kv_op.decode s)

let kv_op_gen =
  QCheck2.Gen.(
    sized_size (int_bound 3)
    @@ fix (fun self depth ->
           let key = string_size (int_bound 6) in
           let prim =
             oneof
               [
                 map2 (fun key value -> Kv_op.Put { key; value }) key
                   (string_size (int_bound 20));
                 map (fun key -> Kv_op.Get { key }) key;
                 map2 (fun key delta -> Kv_op.Add { key; delta }) key nat;
                 pure Kv_op.Noop;
               ]
           in
           if depth = 0 then prim
           else
             frequency
               [
                 (2, prim);
                 (1, map (fun ops -> Kv_op.Batch ops) (list_size (int_bound 5) (self (depth - 1))));
               ]))

(* Byte strings glued from pieces the decoder branches on: tags (valid
   and unknown), small and hostile varints, whole and cut encodings. *)
let hostile_kv_gen =
  let varint n =
    let w = Codec.Writer.create () in
    Codec.Writer.varint w n;
    Codec.Writer.contents w
  in
  QCheck2.Gen.(
    map (String.concat "")
      (list_size (int_bound 10)
         (oneof
            [
              map (String.make 1) char;
              map (fun t -> String.make 1 (Char.chr t)) (int_bound 5);
              map varint (int_bound 300);
              oneofl [ neg_len; long_len; huge_len ];
              map Kv_op.encode kv_op_gen;
              map2
                (fun op cut ->
                  let e = Kv_op.encode op in
                  String.sub e 0 (cut mod (String.length e + 1)))
                kv_op_gen nat;
            ])))

let kv_count_props =
  [
    qtest ~print:String.escaped "count_encoded = decode-then-count on hostile bytes"
      hostile_kv_gen count_agrees;
    qtest ~print:String.escaped "count_encoded = decode-then-count on arbitrary bytes"
      QCheck2.Gen.string count_agrees;
    qtest "count_encoded counts every encoded op" kv_op_gen (fun op ->
        Kv_op.count_encoded (Kv_op.encode op) = Some (reference_count op));
  ]

(* ------------------------------------------------------------------ *)
(* Auth_store *)

let fresh () = Kv_service.create ()

let test_auth_store_execute () =
  let st = fresh () in
  let outs =
    Auth_store.execute_block st ~seq:1
      ~ops:[ Kv_service.put ~key:"a" ~value:"1"; Kv_service.get ~key:"a" ]
  in
  Alcotest.(check (list string)) "outputs" [ "ok"; "1" ] outs;
  check_int "last executed" 1 (Auth_store.last_executed st);
  check "sequential only" true
    (try
       ignore (Auth_store.execute_block st ~seq:3 ~ops:[]);
       false
     with Invalid_argument _ -> true)

let test_auth_store_digest_deterministic () =
  let run () =
    let st = fresh () in
    ignore (Auth_store.execute_block st ~seq:1 ~ops:[ Kv_service.put ~key:"x" ~value:"1" ]);
    ignore (Auth_store.execute_block st ~seq:2 ~ops:[ Kv_service.put ~key:"y" ~value:"2" ]);
    Auth_store.digest st
  in
  check_str "replicas agree" (Sbft_crypto.Sha256.hex (run ()))
    (Sbft_crypto.Sha256.hex (run ()))

let test_auth_store_digest_depends_on_history () =
  let st1 = fresh () and st2 = fresh () in
  ignore (Auth_store.execute_block st1 ~seq:1 ~ops:[ Kv_service.put ~key:"x" ~value:"1" ]);
  ignore (Auth_store.execute_block st2 ~seq:1 ~ops:[ Kv_service.put ~key:"x" ~value:"2" ]);
  check "different ops, different digest" false
    (String.equal (Auth_store.digest st1) (Auth_store.digest st2))

let test_auth_store_op_proof () =
  let st = fresh () in
  let op0 = Kv_service.put ~key:"alice" ~value:"100" in
  let op1 = Kv_service.put ~key:"bob" ~value:"50" in
  let op2 = Kv_service.get ~key:"alice" in
  ignore (Auth_store.execute_block st ~seq:1 ~ops:[ op0; op1; op2 ]);
  let digest = Auth_store.digest st in
  (* Valid proof for each position. *)
  List.iteri
    (fun index (op, value) ->
      match Auth_store.prove_op st ~seq:1 ~index with
      | None -> Alcotest.fail "no proof"
      | Some proof ->
          check
            (Printf.sprintf "op %d verifies" index)
            true
            (Auth_store.verify_op_proof ~digest ~seq:1 ~index ~op ~value ~proof))
    [ (op0, "ok"); (op1, "ok"); (op2, "100") ];
  (* Tampering attempts. *)
  let proof = Option.get (Auth_store.prove_op st ~seq:1 ~index:0) in
  check "wrong value" false
    (Auth_store.verify_op_proof ~digest ~seq:1 ~index:0 ~op:op0 ~value:"999" ~proof);
  check "wrong op" false
    (Auth_store.verify_op_proof ~digest ~seq:1 ~index:0 ~op:op1 ~value:"ok" ~proof);
  check "wrong index" false
    (Auth_store.verify_op_proof ~digest ~seq:1 ~index:1 ~op:op0 ~value:"ok" ~proof);
  check "wrong seq" false
    (Auth_store.verify_op_proof ~digest ~seq:2 ~index:0 ~op:op0 ~value:"ok" ~proof);
  check "wrong digest" false
    (Auth_store.verify_op_proof ~digest:(String.make 32 'x') ~seq:1 ~index:0 ~op:op0
       ~value:"ok" ~proof);
  check "garbage proof" false
    (Auth_store.verify_op_proof ~digest ~seq:1 ~index:0 ~op:op0 ~value:"ok" ~proof:"junk")

let test_auth_store_proof_across_blocks () =
  (* A proof for block 1 must verify against block 1's digest, not the
     digest of later states. *)
  let st = fresh () in
  let op = Kv_service.put ~key:"k" ~value:"v" in
  ignore (Auth_store.execute_block st ~seq:1 ~ops:[ op ]);
  let d1 = Auth_store.digest st in
  ignore (Auth_store.execute_block st ~seq:2 ~ops:[ Kv_service.put ~key:"k2" ~value:"v2" ]);
  let d2 = Auth_store.digest st in
  let proof = Option.get (Auth_store.prove_op st ~seq:1 ~index:0) in
  check "verifies at d1" true
    (Auth_store.verify_op_proof ~digest:d1 ~seq:1 ~index:0 ~op ~value:"ok" ~proof);
  check "rejected at d2" false
    (Auth_store.verify_op_proof ~digest:d2 ~seq:1 ~index:0 ~op ~value:"ok" ~proof);
  check "digest_at retains block 1" true (Auth_store.digest_at st ~seq:1 = Some d1)

let test_auth_store_query_proof () =
  let st = fresh () in
  ignore
    (Auth_store.execute_block st ~seq:1
       ~ops:[ Kv_service.put ~key:"alice" ~value:"100" ]);
  ignore
    (Auth_store.execute_block st ~seq:2 ~ops:[ Kv_service.put ~key:"bob" ~value:"7" ]);
  let digest = Auth_store.digest st in
  (match Auth_store.prove_query st ~key:"alice" with
  | None -> Alcotest.fail "no query proof"
  | Some (value, proof) ->
      check_str "value" "100" value;
      check "query verifies" true
        (Auth_store.verify_query_proof ~digest ~seq:2 ~key:"alice" ~value ~proof);
      check "wrong value fails" false
        (Auth_store.verify_query_proof ~digest ~seq:2 ~key:"alice" ~value:"1" ~proof);
      check "wrong key fails" false
        (Auth_store.verify_query_proof ~digest ~seq:2 ~key:"bob" ~value ~proof));
  check "absent key" true (Auth_store.prove_query st ~key:"nope" = None)

let test_auth_store_outputs_and_gc () =
  let st = fresh () in
  for s = 1 to 5 do
    ignore
      (Auth_store.execute_block st ~seq:s
         ~ops:[ Kv_service.put ~key:(string_of_int s) ~value:"v" ])
  done;
  check "output retained" true (Auth_store.output_at st ~seq:2 ~index:0 = Some "ok");
  check "ops retained" true (Auth_store.ops_at st ~seq:2 <> None);
  Auth_store.gc_below st ~seq:4;
  check "gc dropped old" true (Auth_store.output_at st ~seq:2 ~index:0 = None);
  check "gc kept recent" true (Auth_store.output_at st ~seq:4 ~index:0 = Some "ok");
  check "proof gone after gc" true (Auth_store.prove_op st ~seq:2 ~index:0 = None)

let test_auth_store_snapshot () =
  let st = fresh () in
  for s = 1 to 10 do
    ignore
      (Auth_store.execute_block st ~seq:s
         ~ops:[ Kv_service.put ~key:(Printf.sprintf "k%d" s) ~value:(string_of_int s) ])
  done;
  let snap = Auth_store.snapshot st in
  let d = Auth_store.digest st in
  (match Auth_store.snapshot_digest_info snap with
  | Some (seq, _) -> check_int "snapshot seq" 10 seq
  | None -> Alcotest.fail "bad snapshot header");
  let st2 = fresh () in
  (match Auth_store.load_snapshot st2 snap with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  check_int "restored seq" 10 (Auth_store.last_executed st2);
  check_str "digest stable" (Sbft_crypto.Sha256.hex d)
    (Sbft_crypto.Sha256.hex (Auth_store.digest st2));
  (* Restored store continues executing identically. *)
  let o1 = Auth_store.execute_block st ~seq:11 ~ops:[ Kv_service.get ~key:"k3" ] in
  let o2 = Auth_store.execute_block st2 ~seq:11 ~ops:[ Kv_service.get ~key:"k3" ] in
  check "same outputs" true (o1 = o2);
  check_str "same digest after more blocks"
    (Sbft_crypto.Sha256.hex (Auth_store.digest st))
    (Sbft_crypto.Sha256.hex (Auth_store.digest st2));
  check "corrupt snapshot rejected" true
    (match Auth_store.load_snapshot (fresh ()) "BOGUS" with Error _ -> true | Ok () -> false)

let test_auth_store_snapshot_checked () =
  let st = fresh () in
  for s = 1 to 10 do
    ignore
      (Auth_store.execute_block st ~seq:s
         ~ops:[ Kv_service.put ~key:(Printf.sprintf "k%d" s) ~value:(string_of_int s) ])
  done;
  let snap = Auth_store.snapshot st in
  let d = Auth_store.digest st in
  (* Matching expectation: the snapshot installs. *)
  let st2 = fresh () in
  (match Auth_store.load_snapshot_checked st2 snap ~expect:d with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  check_int "restored seq" 10 (Auth_store.last_executed st2);
  check_str "digest matches expectation" (Sbft_crypto.Sha256.hex d)
    (Sbft_crypto.Sha256.hex (Auth_store.digest st2));
  (* Wrong expectation: a well-formed snapshot for a *different* digest
     is rejected without mutating the target store. *)
  let st3 = fresh () in
  ignore (Auth_store.execute_block st3 ~seq:1 ~ops:[ Kv_service.put ~key:"own" ~value:"x" ]);
  let d3 = Auth_store.digest st3 in
  (match Auth_store.load_snapshot_checked st3 snap ~expect:"not-the-digest" with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "digest mismatch accepted");
  check_int "store untouched: seq" 1 (Auth_store.last_executed st3);
  check_str "store untouched: digest" (Sbft_crypto.Sha256.hex d3)
    (Sbft_crypto.Sha256.hex (Auth_store.digest st3));
  (* Malformed snapshot: rejected before any digest computation, store
     again untouched. *)
  (match Auth_store.load_snapshot_checked st3 "BOGUS" ~expect:d with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "malformed snapshot accepted");
  check_int "store untouched after parse failure" 1 (Auth_store.last_executed st3)

(* Crafted length fields in a client-visible proof or a state-transfer
   snapshot must be rejected, not crash the receiver. *)
(* [bootstrap] applies ops without computing a root and [snapshot] only
   folds, so the snapshot is taken from a never-hashed map; the checked
   loader then hashes its own rebuilt copy.  Both must match a map
   hashed after every Put. *)
let test_snapshot_of_unhashed_map () =
  let ops =
    List.init 300 (fun i ->
        Kv_service.put ~key:(Printf.sprintf "s%d" (i mod 200)) ~value:(string_of_int i))
  in
  let st = fresh () in
  Auth_store.bootstrap st ~ops;
  let snap = Auth_store.snapshot st in
  let eager =
    List.fold_left
      (fun m op ->
        let m, _ = Kv_service.apply m op in
        ignore (Sbft_crypto.Merkle_map.root m);
        m)
      Sbft_crypto.Merkle_map.empty ops
  in
  check_str "lazy root = eager root"
    (Sbft_crypto.Sha256.hex (Sbft_crypto.Merkle_map.root eager))
    (Sbft_crypto.Sha256.hex (Sbft_crypto.Merkle_map.root (Auth_store.state st)));
  let st2 = fresh () in
  (match Auth_store.load_snapshot_checked st2 snap ~expect:(Auth_store.digest st) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  check_str "restored digest" (Sbft_crypto.Sha256.hex (Auth_store.digest st))
    (Sbft_crypto.Sha256.hex (Auth_store.digest st2))

let test_hostile_proofs_and_snapshots () =
  let root = String.make 32 'r' and digest = String.make 32 'd' in
  check "merkle proof, negative path length" true
    (Sbft_crypto.Merkle.decode_proof ("\x00\x00\x00\x00" ^ neg_len) = None);
  check "merkle-map proof, negative sibling count" true
    (Sbft_crypto.Merkle_map.decode_proof neg_len = None);
  check "op proof, negative inner length" false
    (Auth_store.verify_op_proof ~digest ~seq:1 ~index:0 ~op:"o" ~value:"v"
       ~proof:("\x01" ^ root ^ neg_len));
  check "op proof, negative path length" false
    (Auth_store.verify_op_proof ~digest ~seq:1 ~index:0 ~op:"o" ~value:"v"
       ~proof:("\x01" ^ root ^ "\x0d\x00\x00\x00\x00" ^ neg_len));
  check "query proof, negative inner length" false
    (Auth_store.verify_query_proof ~digest ~seq:1 ~key:"k" ~value:"v"
       ~proof:("\x02" ^ root ^ neg_len));
  let st = fresh () in
  let snap_with entry =
    "SNAP" ^ String.make 8 '\x00' ^ root ^ "\x00\x00\x00\x01" ^ entry
  in
  List.iter
    (fun (name, entry) ->
      check name true
        (match Auth_store.load_snapshot_checked st (snap_with entry) ~expect:digest with
        | Error _ -> true
        | Ok () -> false))
    [
      ("snapshot, negative key length", neg_len ^ "k");
      ("snapshot, overflowing value length", "\x01k" ^ huge_len ^ "v");
    ]

(* Valid encodings of every decoder's input, for the robustness
   property below. *)
let decoder_inputs =
  let st = fresh () in
  ignore
    (Auth_store.execute_block st ~seq:1
       ~ops:
         [
           Kv_service.put ~key:"a" ~value:"1";
           Kv_service.add ~key:"b" ~delta:5;
           Kv_service.get ~key:"a";
         ]);
  let batch =
    Kv_op.encode
      (Kv_op.Batch
         [ Kv_op.Put { key = "k"; value = "v" }; Kv_op.Get { key = "k" }; Kv_op.Noop ])
  in
  [
    batch;
    Option.get (Auth_store.prove_op st ~seq:1 ~index:1);
    snd (Option.get (Auth_store.prove_query st ~key:"a"));
    Auth_store.snapshot st;
    Sbft_crypto.Merkle.encode_proof
      (Sbft_crypto.Merkle.prove (Sbft_crypto.Merkle.build [ "a"; "b"; "c" ]) 1);
    Sbft_crypto.Merkle_map.encode_proof
      (Option.get (Sbft_crypto.Merkle_map.prove (Auth_store.state st) "a"));
  ]

(* QCheck fails a property that raises, so returning at all is the check. *)
let decoders_never_raise s =
  ignore (Kv_op.decode s);
  ignore (Sbft_crypto.Merkle.decode_proof s);
  ignore (Sbft_crypto.Merkle_map.decode_proof s);
  ignore
    (Auth_store.verify_op_proof ~digest:"" ~seq:1 ~index:1 ~op:"" ~value:"" ~proof:s);
  ignore (Auth_store.load_snapshot_checked (fresh ()) s ~expect:"");
  true

let decoder_props =
  let n = List.length decoder_inputs in
  [
    qtest "decoders never raise on arbitrary, cut or flipped input"
      QCheck2.Gen.(
        quad (int_bound n) (int_bound 2) nat (string_size (int_bound 16)))
      (fun (which, mode, pos, junk) ->
        if which = n then decoders_never_raise junk
        else begin
          let base = List.nth decoder_inputs which in
          let cut = pos mod (String.length base + 1) in
          let prefix = String.sub base 0 cut in
          match mode with
          | 0 -> decoders_never_raise prefix
          | 1 -> decoders_never_raise (prefix ^ junk)
          | _ ->
              let flipped =
                String.mapi
                  (fun i ch -> if i >= cut then Char.chr (Char.code ch lxor 0xFF) else ch)
                  base
              in
              decoders_never_raise flipped
        end);
  ]

let auth_store_props =
  [
    qtest "two replicas stay digest-identical under random workloads"
      QCheck2.Gen.(int_range 0 200)
      (fun seed ->
        let r = Sbft_sim.Rng.create (Int64.of_int (seed * 7)) in
        let a = fresh () and b = fresh () in
        let ok = ref true in
        for s = 1 to 10 do
          let n = 1 + Sbft_sim.Rng.int r 5 in
          let ops =
            List.init n (fun _ ->
                if Sbft_sim.Rng.bool r 0.7 then
                  Kv_service.put
                    ~key:(Printf.sprintf "k%d" (Sbft_sim.Rng.int r 20))
                    ~value:(Printf.sprintf "v%d" (Sbft_sim.Rng.int r 100))
                else Kv_service.get ~key:(Printf.sprintf "k%d" (Sbft_sim.Rng.int r 20)))
          in
          let oa = Auth_store.execute_block a ~seq:s ~ops in
          let ob = Auth_store.execute_block b ~seq:s ~ops in
          if oa <> ob || not (String.equal (Auth_store.digest a) (Auth_store.digest b))
          then ok := false
        done;
        !ok);
  ]

let test_shared_exec_cache () =
  (* Replicas sharing a cache produce identical results and share the
     resulting state structurally; a diverging replica misses the cache
     and computes its own (different) digest. *)
  let cache = Auth_store.new_cache () in
  let a = fresh () and b = fresh () and rogue = fresh () in
  List.iter (fun st -> Auth_store.set_cache st cache) [ a; b; rogue ];
  let ops = [ Kv_service.put ~key:"k" ~value:"v"; Kv_service.get ~key:"k" ] in
  let oa = Auth_store.execute_block a ~seq:1 ~ops in
  let ob = Auth_store.execute_block b ~seq:1 ~ops in
  check "same outputs via cache" true (oa = ob);
  check_str "same digest" (Sbft_crypto.Sha256.hex (Auth_store.digest a))
    (Sbft_crypto.Sha256.hex (Auth_store.digest b));
  (* Proofs still work on the cache-hit replica. *)
  (match Auth_store.prove_op b ~seq:1 ~index:0 with
  | Some proof ->
      check "proof from cached record" true
        (Auth_store.verify_op_proof ~digest:(Auth_store.digest b) ~seq:1 ~index:0
           ~op:(List.hd ops) ~value:"ok" ~proof)
  | None -> Alcotest.fail "no proof");
  (* Divergent execution does not collide in the cache. *)
  let orogue =
    Auth_store.execute_block rogue ~seq:1 ~ops:[ Kv_service.put ~key:"k" ~value:"EVIL" ]
  in
  check "rogue outputs differ" true (orogue <> oa);
  check "rogue digest differs" false
    (String.equal (Auth_store.digest rogue) (Auth_store.digest a));
  (* Continuing from divergent states stays isolated (read-only ops keep
     the states distinct; a put would legitimately re-converge them). *)
  let reads = [ Kv_service.get ~key:"k" ] in
  let ra = Auth_store.execute_block a ~seq:2 ~ops:reads in
  let rr = Auth_store.execute_block rogue ~seq:2 ~ops:reads in
  check "reads see divergent states" true (ra = [ "v" ] && rr = [ "EVIL" ]);
  check "still different" false
    (String.equal (Auth_store.digest rogue) (Auth_store.digest a));
  (* The key is the op list itself, so lists that a concatenating
     digest would merge stay apart: [""] is what a duplicate request
     degrades to. *)
  let cache = Auth_store.new_cache () in
  let one = fresh () and two = fresh () in
  List.iter (fun st -> Auth_store.set_cache st cache) [ one; two ];
  check_int "[x] gets one output" 1
    (List.length (Auth_store.execute_block one ~seq:1 ~ops:[ "x" ]));
  check_int "[x; \"\"] gets two outputs" 2
    (List.length (Auth_store.execute_block two ~seq:1 ~ops:[ "x"; "" ]));
  (* A counting service shows which lookups hit. *)
  let applied = ref 0 in
  let counting () =
    let st =
      Auth_store.create
        ~apply:(fun m op ->
          incr applied;
          Kv_service.apply m op)
        ()
    in
    Auth_store.set_cache st cache;
    st
  in
  let p = counting () and q = counting () and r = counting () in
  let ops = [ Kv_service.put ~key:"k" ~value:"v"; Kv_service.get ~key:"k" ] in
  let copies = List.map (fun op -> Bytes.to_string (Bytes.of_string op)) ops in
  check "copies are separate strings" false (List.hd ops == List.hd copies);
  let op_ = Auth_store.execute_block p ~seq:1 ~ops in
  let oq = Auth_store.execute_block q ~seq:1 ~ops:copies in
  check "equal copies hit the cache" true (op_ = oq && !applied = 2);
  let other = [ Kv_service.put ~key:"k" ~value:"w" ] in
  let or_ = Auth_store.execute_block r ~seq:1 ~ops:other in
  check "different ops at the same seq and pre-state execute" true
    (or_ = [ "ok" ] && !applied = 3);
  check "and land in a different state" false
    (String.equal (Auth_store.digest r) (Auth_store.digest p))

let test_clone_independent () =
  let a = fresh () in
  ignore (Auth_store.execute_block a ~seq:1 ~ops:[ Kv_service.put ~key:"x" ~value:"1" ]);
  let b = Auth_store.clone a in
  check_str "clone digest equal" (Sbft_crypto.Sha256.hex (Auth_store.digest a))
    (Sbft_crypto.Sha256.hex (Auth_store.digest b));
  ignore (Auth_store.execute_block a ~seq:2 ~ops:[ Kv_service.put ~key:"x" ~value:"2" ]);
  check_int "clone unaffected" 1 (Auth_store.last_executed b);
  ignore (Auth_store.execute_block b ~seq:2 ~ops:[ Kv_service.put ~key:"x" ~value:"3" ]);
  check "clones diverge independently" false
    (String.equal (Auth_store.digest a) (Auth_store.digest b))

let test_bootstrap () =
  let a = fresh () and b = fresh () in
  let genesis = [ Kv_service.put ~key:"g" ~value:"1" ] in
  Auth_store.bootstrap a ~ops:genesis;
  Auth_store.bootstrap b ~ops:genesis;
  check_str "bootstrapped digests equal" (Sbft_crypto.Sha256.hex (Auth_store.digest a))
    (Sbft_crypto.Sha256.hex (Auth_store.digest b));
  check_int "no blocks executed" 0 (Auth_store.last_executed a);
  ignore (Auth_store.execute_block a ~seq:1 ~ops:[ Kv_service.get ~key:"g" ]);
  check "bootstrap state visible" true (Auth_store.output_at a ~seq:1 ~index:0 = Some "1");
  check "bootstrap after execution rejected" true
    (try
       Auth_store.bootstrap a ~ops:genesis;
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Block_store *)

let bop ?(client = 7) ?(timestamp = 1) ?(signature = "") op =
  { Block_store.client; timestamp; op; signature }

let fe = Sbft_crypto.Field.of_int

let test_block_store () =
  let bs = Block_store.create () in
  check_int "empty highest" 0 (Block_store.highest bs);
  Block_store.add bs { seq = 1; view = 0; reqs = [ bop "a" ]; cert = Cert_fast (fe 1) };
  Block_store.add bs
    { seq = 3; view = 0; reqs = [ bop "b" ]; cert = Cert_slow (fe 3, fe 33) };
  check_int "highest" 3 (Block_store.highest bs);
  check "mem" true (Option.is_some (Block_store.find bs 1));
  check "not mem" false (Option.is_some (Block_store.find bs 2));
  (* First write wins. *)
  Block_store.add bs { seq = 1; view = 9; reqs = [ bop "z" ]; cert = Cert_fast (fe 9) };
  (match Block_store.find bs 1 with
  | Some e ->
      check "idempotent" true
        (match e.reqs with [ o ] -> String.equal o.Block_store.op "a" | _ -> false);
      check "client identity persisted" true
        (match e.reqs with [ o ] -> o.Block_store.client = 7 && o.Block_store.timestamp = 1 | _ -> false)
  | None -> Alcotest.fail "missing");
  Block_store.prune_below bs 3;
  check "pruned" false (Option.is_some (Block_store.find bs 1));
  check "kept" true (Option.is_some (Block_store.find bs 3));
  let row =
    { Block_store.ce_client = 9; ce_timestamp = 3; ce_value = "v"; ce_seq = 5; ce_index = 0 }
  in
  Block_store.set_checkpoint bs ~seq:5 ~snapshot:(lazy "snapA") ~table:[ row ];
  Block_store.set_checkpoint bs ~seq:4 ~snapshot:(lazy "old") ~table:[];
  (match Block_store.checkpoint bs with
  | Some cp
    when cp.Block_store.cp_seq = 5
         && Lazy.force cp.Block_store.cp_snapshot = "snapA"
         && cp.Block_store.cp_table = [ row ] -> ()
  | _ -> Alcotest.fail "checkpoint regression");
  check "entry size positive" true
    (Block_store.entry_size { seq = 1; view = 0; reqs = [ bop "abc" ]; cert = Cert_fast (fe 1) } > 0);
  (* 16 of header, 20 + op per request, 8 per field element; the
     signature is not counted. *)
  check_int "fast entry size" 47
    (Block_store.entry_size
       { seq = 1; view = 0; reqs = [ bop ~signature:(String.make 256 's') "abc" ]; cert = Cert_fast (fe 1) });
  check_int "slow entry size" 55
    (Block_store.entry_size
       { seq = 1; view = 0; reqs = [ bop "abc" ]; cert = Cert_slow (fe 1, fe 2) })

(* ------------------------------------------------------------------ *)
(* Wal *)

let row ~client ~timestamp ~value ~seq ~index =
  Wal.Client_row
    {
      Block_store.ce_client = client;
      ce_timestamp = timestamp;
      ce_value = value;
      ce_seq = seq;
      ce_index = index;
    }

let wal_records =
  [
    Wal.View_entered 2;
    Wal.View_change_started 3;
    Wal.Accepted_pre_prepare
      { seq = 4; view = 2; reqs = [ bop "op-a"; bop ~client:(-1) ~timestamp:0 "" ] };
    Wal.Accepted_prepare { seq = 4; view = 2; tau = fe 42 };
    Wal.Commit_cert { seq = 4; view = 2; fast = false };
    Wal.Stable_checkpoint { seq = 8; digest = "digest"; pi = fe 43 };
    row ~client:7 ~timestamp:1 ~value:"v" ~seq:4 ~index:0;
  ]

let test_wal_roundtrip () =
  let w = Wal.create () in
  List.iter (fun r -> ignore (Wal.append w r)) wal_records;
  check "dirty before sync" true (Wal.dirty w);
  check "replay sees nothing unsynced" true (Wal.replay w = []);
  check "sync commits" true (Wal.sync w);
  check "clean after sync" false (Wal.dirty w);
  check "second sync is a no-op" false (Wal.sync w);
  check "replay in append order" true (Wal.replay w = wal_records);
  (* Replay is read-only: doing it again gives the same records. *)
  check "replay idempotent" true (Wal.replay w = wal_records);
  check_int "append count" (List.length wal_records) (Wal.appends w);
  check_int "sync count" 1 (Wal.syncs w)

let test_wal_crash_loses_tail () =
  let w = Wal.create () in
  ignore (Wal.append w (Wal.View_entered 1));
  ignore (Wal.sync w);
  ignore (Wal.append w (Wal.Commit_cert { seq = 1; view = 1; fast = true }));
  (* Crash before the group commit: only the synced prefix survives. *)
  Wal.drop_pending w;
  check "unsynced record gone" true (Wal.replay w = [ Wal.View_entered 1 ]);
  check "nothing left pending" false (Wal.dirty w)

let test_wal_corrupt_tail () =
  let w = Wal.create () in
  ignore (Wal.append w (Wal.View_entered 1));
  ignore (Wal.append w (Wal.Commit_cert { seq = 1; view = 1; fast = true }));
  ignore (Wal.sync w);
  (* A torn write garbles the last frame: replay keeps the prefix. *)
  Wal.corrupt_tail w ~bytes:3;
  check "prefix survives torn tail" true (Wal.replay w = [ Wal.View_entered 1 ]);
  (* Garbling everything yields an empty (not crashing) replay. *)
  Wal.corrupt_tail w ~bytes:(Wal.durable_bytes w);
  check "fully corrupt log replays empty" true (Wal.replay w = [])

let test_wal_truncate_below () =
  let w = Wal.create () in
  List.iter
    (fun r -> ignore (Wal.append w r))
    [
      Wal.View_entered 1;
      Wal.Commit_cert { seq = 1; view = 1; fast = true };
      Wal.Stable_checkpoint { seq = 4; digest = "d4"; pi = fe 4 };
      Wal.Commit_cert { seq = 5; view = 1; fast = false };
      Wal.Stable_checkpoint { seq = 8; digest = "d8"; pi = fe 8 };
      Wal.Commit_cert { seq = 9; view = 1; fast = true };
    ];
  ignore (Wal.sync w);
  Wal.truncate_below w ~seq:8;
  let kept = Wal.replay w in
  check "view records retained" true (List.mem (Wal.View_entered 1) kept);
  check "latest checkpoint retained" true
    (List.mem (Wal.Stable_checkpoint { seq = 8; digest = "d8"; pi = fe 8 }) kept);
  (* When the retained checkpoint's seq equals the truncation seq it is
     both re-added up front and kept by the [s >= seq] filter; it must
     still appear exactly once or every later truncation carries the
     duplicate frame forward. *)
  check_int "retained checkpoint appears exactly once" 1
    (List.length
       (List.filter
          (fun r -> r = Wal.Stable_checkpoint { seq = 8; digest = "d8"; pi = fe 8 })
          kept));
  check "older checkpoint dropped" false
    (List.mem (Wal.Stable_checkpoint { seq = 4; digest = "d4"; pi = fe 4 }) kept);
  check "pre-checkpoint record dropped" false
    (List.mem (Wal.Commit_cert { seq = 5; view = 1; fast = false }) kept);
  check "post-checkpoint record kept" true
    (List.mem (Wal.Commit_cert { seq = 9; view = 1; fast = true }) kept);
  (* Truncation preserves replayability: sync more records after. *)
  ignore (Wal.append w (Wal.Commit_cert { seq = 10; view = 1; fast = true }));
  ignore (Wal.sync w);
  check "appends after truncation replay" true
    (List.mem (Wal.Commit_cert { seq = 10; view = 1; fast = true }) (Wal.replay w))

let test_wal_truncate_amortized () =
  (* Physical compaction is deferred behind a doubling byte watermark:
     per-slot truncation calls must not rewrite the log each time (at
     paper scale that was quadratic), but once the durable buffer
     outgrows the watermark the dead prefix really is dropped. *)
  let w = Wal.create () in
  let big = String.make 512 'x' in
  let grow_past seq0 n =
    for i = 0 to n - 1 do
      ignore
        (Wal.append w
           (row ~client:1 ~timestamp:i ~value:big ~seq:(seq0 + i) ~index:0))
    done;
    ignore (Wal.sync w)
  in
  (* ~256 KB of records, all below the horizon we'll truncate to. *)
  grow_past 1 500;
  let before = Wal.durable_bytes w in
  Wal.truncate_below w ~seq:501;
  check "watermark crossing compacts the log" true
    (Wal.durable_bytes w < before / 4);
  (* Replay only ever sees the live suffix, compacted or not. *)
  grow_past 501 3;
  Wal.truncate_below w ~seq:502;
  check "logical truncation filters replay without rewrite" true
    (List.for_all
       (fun r ->
         match r with Wal.Client_row ce -> ce.Block_store.ce_seq >= 502 | _ -> true)
       (Wal.replay w));
  (* Small logs below the watermark never pay for a rewrite, but their
     replay is still truncated. *)
  let small = Wal.create () in
  ignore (Wal.append small (Wal.Commit_cert { seq = 1; view = 1; fast = true }));
  ignore (Wal.append small (Wal.Commit_cert { seq = 2; view = 1; fast = true }));
  ignore (Wal.sync small);
  let sz = Wal.durable_bytes small in
  Wal.truncate_below small ~seq:2;
  check_int "sub-watermark log keeps its bytes" sz (Wal.durable_bytes small);
  check "sub-watermark log still replays truncated" true
    (Wal.replay small = [ Wal.Commit_cert { seq = 2; view = 1; fast = true } ])

(* A log holding [records], synced after every [batch] appends. *)
let synced_in_batches ~batch records =
  let w = Wal.create () in
  List.iteri
    (fun i r ->
      ignore (Wal.append w r);
      if (i + 1) mod batch = 0 then ignore (Wal.sync w))
    records;
  ignore (Wal.sync w);
  w

let synced_once records =
  let w = Wal.create () in
  List.iter (fun r -> ignore (Wal.append w r)) records;
  ignore (Wal.sync w);
  w

(* Compaction keeps the one latest checkpoint at or below the horizon
   and every other record at or above it, so a checkpoint value logged
   twice at the horizon survives as two records.  The physical rewrite
   (the filler row pushes the log past the watermark) must agree with
   the replay of the bytes, where the two copies are distinct values. *)
let test_wal_duplicate_checkpoint () =
  let cp = Wal.Stable_checkpoint { seq = 5; digest = "d5"; pi = fe 5 } in
  let filler =
    row ~client:1 ~timestamp:1 ~value:(String.make 70_000 'v') ~seq:1 ~index:0
  in
  let w = synced_once [ filler; cp; cp ] in
  check "replay before compaction" true (Wal.replay w = [ filler; cp; cp ]);
  Wal.truncate_below w ~seq:5;
  check "compaction rewrote the log" true (Wal.durable_bytes w = 2 * String.length (Wal.frame cp));
  check "both copies survive" true (Wal.replay w = [ cp; cp ])

let test_wal_bytes_across_syncs () =
  let w = Wal.create () in
  (* varint length + 4-byte checksum + payload (tag, zigzag varints) *)
  check_int "View_entered frame" 7 (Wal.append w (Wal.View_entered 2));
  check_int "pending bytes are not durable" 0 (Wal.durable_bytes w);
  check "first sync" true (Wal.sync w);
  check_int "durable after sync 1" 7 (Wal.durable_bytes w);
  check_int "Commit_cert frame" 9
    (Wal.append w (Wal.Commit_cert { seq = 4; view = 2; fast = false }));
  let big = row ~client:1 ~timestamp:2 ~value:(String.make 200 'v') ~seq:3 ~index:0 in
  (* 7 bytes of tag and small ints, a 2-byte length prefix on the
     200-byte value, then a 2-byte frame length and the checksum *)
  check_int "Client_row frame" 213 (Wal.append w big);
  check "second sync" true (Wal.sync w);
  check_int "durable after sync 2" (7 + 9 + 213) (Wal.durable_bytes w);
  check "clean sync changes nothing" false (Wal.sync w);
  check_int "durable after clean sync" 229 (Wal.durable_bytes w);
  let lens = List.map (Wal.append w) wal_records in
  check "third sync" true (Wal.sync w);
  check_int "durable after sync 3"
    (229 + List.fold_left ( + ) 0 lens)
    (Wal.durable_bytes w);
  check_int "syncs" 3 (Wal.syncs w);
  check_int "appends" (3 + List.length wal_records) (Wal.appends w)

let test_wal_corrupt_across_syncs () =
  let head = [ Wal.View_entered 1; Wal.Commit_cert { seq = 1; view = 1; fast = true } ] in
  let last = Wal.Accepted_prepare { seq = 2; view = 1; tau = fe 2 } in
  let build () =
    let w = synced_once head in
    let len = Wal.append w last in
    ignore (Wal.sync w);
    (w, len)
  in
  let w, len = build () in
  Wal.corrupt_tail w ~bytes:len;
  check "last frame garbled: one record lost" true (Wal.replay w = head);
  let w, len = build () in
  Wal.corrupt_tail w ~bytes:(len + 1);
  check "one byte into the previous sync: two records lost" true
    (Wal.replay w = [ Wal.View_entered 1 ])

let test_wal_compaction_across_syncs () =
  let value = String.make 512 'x' in
  let records =
    List.concat
      (List.init 160 (fun i ->
           let seq = i + 1 in
           [
             row ~client:1 ~timestamp:i ~value ~seq ~index:0;
             Wal.Commit_cert { seq; view = 0; fast = i mod 2 = 0 };
           ]
           @ if seq mod 16 = 0 then
               [ Wal.Stable_checkpoint { seq; digest = "d"; pi = fe seq } ]
             else []))
  in
  let batched = synced_in_batches ~batch:5 records in
  let once = synced_once records in
  check "same replay before truncation" true (Wal.replay batched = Wal.replay once);
  (* The first truncation crosses the compaction watermark and rewrites
     the log; the second only moves the horizon. *)
  List.iter
    (fun (seq, rewrites) ->
      let before = Wal.durable_bytes once in
      Wal.truncate_below batched ~seq;
      Wal.truncate_below once ~seq;
      check
        (Printf.sprintf "truncate_below %d rewrites: %b" seq rewrites)
        rewrites
        (Wal.durable_bytes once < before);
      check_int
        (Printf.sprintf "same bytes after truncate_below %d" seq)
        (Wal.durable_bytes once) (Wal.durable_bytes batched);
      check
        (Printf.sprintf "same replay after truncate_below %d" seq)
        true
        (Wal.replay batched = Wal.replay once))
    [ (100, true); (120, false) ];
  let batched = synced_in_batches ~batch:7 records in
  let once = synced_once records in
  let cb = Wal.rollback_to_checkpoint batched ~before:90 in
  let co = Wal.rollback_to_checkpoint once ~before:90 in
  check_int "same checkpoint kept" 80 cb;
  check_int "same checkpoint kept (one sync)" 80 co;
  check "same replay after rollback" true (Wal.replay batched = Wal.replay once);
  check_int "same bytes after rollback" (Wal.durable_bytes once) (Wal.durable_bytes batched)

(* Golden frames pin the log's byte format: a pre-prepare with a real
   request and a [client = -1] filler, a client-table row, and the two
   records that carry a field element, logged as the string of its 8
   bytes. *)
let test_wal_golden_frames () =
  let pre_prepare =
    Wal.Accepted_pre_prepare
      {
        seq = 300;
        view = 2;
        reqs =
          [
            bop ~timestamp:41 (Kv_service.put ~key:"k1" ~value:"v1");
            bop ~client:(-1) ~timestamp:0 "";
          ];
      }
  in
  let client_row = row ~client:7 ~timestamp:41 ~value:"ok" ~seq:300 ~index:1 in
  let hex r = Sbft_crypto.Sha256.hex (Wal.frame r) in
  check_str "Accepted_pre_prepare frame" "12198b072003d80404020e520701026b31027631010000"
    (hex pre_prepare);
  check_str "Client_row frame" "09312b0a60070e52026f6bd80402" (hex client_row);
  check_str "Accepted_prepare frame" "0c5833c09c040804080000011f71fb04cb"
    (hex (Wal.Accepted_prepare { seq = 4; view = 2; tau = fe 1234567890123 }));
  check_str "Stable_checkpoint frame" "12896ec8de06100664696765737408000000003ade68b1"
    (hex (Wal.Stable_checkpoint { seq = 8; digest = "digest"; pi = fe 987654321 }));
  let w = Wal.create () in
  check_int "append reports the frame length"
    (String.length (Wal.frame pre_prepare))
    (Wal.append w pre_prepare)

(* A request's signature is not logged: a pre-prepare of signed requests
   costs and frames exactly as the same requests unsigned, and replays
   unsigned. *)
let test_wal_signatures_not_logged () =
  let block signature =
    Wal.Accepted_pre_prepare
      {
        seq = 5;
        view = 1;
        reqs =
          [
            bop ~signature ~timestamp:3 (Kv_service.put ~key:"k" ~value:"v");
            bop ~client:(-1) ~timestamp:0 "";
          ];
      }
  in
  let signed = block (String.make 256 's') and unsigned = block "" in
  let log r =
    let w = Wal.create () in
    let n = Wal.append w r in
    ignore (Wal.sync w);
    (w, n)
  in
  let ws, ns = log signed and wu, nu = log unsigned in
  check_int "same append length" nu ns;
  check_str "same frame" (Wal.frame unsigned) (Wal.frame signed);
  check_int "same durable bytes" (Wal.durable_bytes wu) (Wal.durable_bytes ws);
  check "replays unsigned" true (Wal.replay ws = [ unsigned ])

(* A checksum-valid frame whose field string is not 8 bytes is not a
   record: parsing stops there, as at a torn frame, without raising. *)
let test_wal_short_field_stops_parse () =
  let frame_of payload =
    let w = Codec.Writer.create () in
    Codec.Writer.varint w (String.length payload);
    Codec.Writer.u32 w (Wal.checksum payload);
    Codec.Writer.raw w payload;
    Codec.Writer.contents w
  in
  let checkpoint pi =
    let w = Codec.Writer.create () in
    Codec.Writer.u8 w 6;
    Codec.Writer.varint w 16 (* zigzag of seq 8 *);
    Codec.Writer.str w "digest";
    Codec.Writer.str w pi;
    Codec.Writer.contents w
  in
  let good = Wal.Stable_checkpoint { seq = 8; digest = "digest"; pi = fe 987654321 } in
  check_str "hand-built frame matches the log's"
    (Wal.frame good)
    (frame_of (checkpoint (Sbft_crypto.Field.to_bytes (fe 987654321))));
  let short = frame_of (checkpoint "abc") in
  let parsed = try Ok (Wal.parse (Wal.frame good ^ short ^ Wal.frame good)) with e -> Error e in
  check "parse stops at the short field" true (parsed = Ok [ good ]);
  check "a long field stops it too" true
    (Wal.parse (frame_of (checkpoint (String.make 9 'x'))) = [])

(* Arbitrary records for the frame-size and model properties: ints
   near the zigzag overflow edges (a doubling that overflows makes
   [frame] raise, except [min_int asr 1], which zigzags to [max_int]),
   empty and multi-kilobyte strings, and pre-prepares with many ops. *)
let framable_edges =
  [ 0; -1; 63; 64; -64; -65; 8191; 8192; max_int / 2; min_int asr 1; (min_int asr 1) + 1 ]

let overflowing_edges = [ max_int; min_int; (max_int / 2) + 1; (min_int asr 1) - 1 ]

let wal_int_gen =
  QCheck2.Gen.(
    frequency
      [
        (12, int_range (-1000) 1000);
        (2, int);
        (4, oneofl framable_edges);
        (1, oneofl overflowing_edges);
      ])

(* Long strings are built from a length and a seed: generating them
   char by char, with a shrink tree per char, would dominate the run. *)
let long_str lo hi =
  QCheck2.Gen.(
    map2
      (fun n seed -> String.init n (fun i -> Char.chr (((i * seed) lxor (i lsr 8)) land 0xFF)))
      (int_range lo hi) (int_bound 255))

let wal_str_gen = QCheck2.Gen.(frequency [ (3, string_size (int_bound 8)); (1, long_str 1000 12_000) ])

(* Requests are generated unsigned, as the log gives them back. *)
let wal_record_gen ~ints ~strs ~seqs ~ops =
  QCheck2.Gen.(
    oneof
      [
        map (fun v -> Wal.View_entered v) ints;
        map (fun v -> Wal.View_change_started v) ints;
        map3
          (fun seq view reqs -> Wal.Accepted_pre_prepare { seq; view; reqs })
          seqs ints
          (list_size ops (map3 (fun client timestamp op -> bop ~client ~timestamp op) ints ints strs));
        map3 (fun seq view tau -> Wal.Accepted_prepare { seq; view; tau = fe tau }) seqs ints int;
        map3 (fun seq view fast -> Wal.Commit_cert { seq; view; fast }) seqs ints bool;
        map3 (fun seq digest pi -> Wal.Stable_checkpoint { seq; digest; pi = fe pi }) seqs strs int;
        map5
          (fun client timestamp value seq index -> row ~client ~timestamp ~value ~seq ~index)
          ints ints strs seqs ints;
      ])

let show_record r =
  let str s = Printf.sprintf "%d bytes" (String.length s) in
  let field = Sbft_crypto.Field.to_int64 in
  match r with
  | Wal.View_entered v -> Printf.sprintf "View_entered %d" v
  | Wal.View_change_started v -> Printf.sprintf "View_change_started %d" v
  | Wal.Accepted_pre_prepare { seq; view; reqs } ->
      Printf.sprintf "Accepted_pre_prepare seq=%d view=%d reqs=[%s]" seq view
        (String.concat "; "
           (List.map
              (fun { Block_store.client; timestamp; op; signature } ->
                Printf.sprintf "%d,%d,%s,%s" client timestamp (str op) (str signature))
              reqs))
  | Wal.Accepted_prepare { seq; view; tau } ->
      Printf.sprintf "Accepted_prepare seq=%d view=%d tau=%Ld" seq view (field tau)
  | Wal.Commit_cert { seq; view; fast } ->
      Printf.sprintf "Commit_cert seq=%d view=%d fast=%b" seq view fast
  | Wal.Stable_checkpoint { seq; digest; pi } ->
      Printf.sprintf "Stable_checkpoint seq=%d digest=%s pi=%Ld" seq (str digest) (field pi)
  | Wal.Client_row { Block_store.ce_client; ce_timestamp; ce_value; ce_seq; ce_index } ->
      Printf.sprintf "Client_row client=%d ts=%d value=%s seq=%d index=%d" ce_client
        ce_timestamp (str ce_value) ce_seq ce_index

(* [Ok] the result, or [Error] the message of an [Invalid_argument]. *)
let outcome f = match f () with v -> Ok v | exception Invalid_argument m -> Error m

let wal_frame_props =
  let record_gen =
    wal_record_gen ~ints:wal_int_gen ~strs:wal_str_gen ~seqs:wal_int_gen
      ~ops:QCheck2.Gen.(int_bound 80)
  in
  [
    qtest ~print:show_record "append returns the frame length, or raises as frame does"
      record_gen (fun r ->
        let w = Wal.create () in
        match (outcome (fun () -> String.length (Wal.frame r)), outcome (fun () -> Wal.append w r)) with
        | Ok framed, Ok appended ->
            framed = appended && Wal.appends w = 1 && Wal.dirty w
        | Error framed, Error appended ->
            String.equal framed appended && Wal.appends w = 0 && not (Wal.dirty w)
        | _ -> false);
    qtest ~print:show_record "a frame parses back to its record" record_gen (fun r ->
        match outcome (fun () -> Wal.frame r) with
        | Ok f -> Wal.parse f = [ r ]
        | Error _ -> true);
  ]

(* Reference model of the log: the durable byte image and the pending
   frames, as strings, updated the way a log that stores frames would.
   Only [Wal.frame] and [Wal.parse] are shared with the real log. *)
type wal_model = {
  mutable image : string;
  mutable pending : string list;  (** oldest first *)
  mutable m_appends : int;
  mutable m_syncs : int;
  mutable horizon : int;
  mutable watermark : int;
}

type wal_step =
  | Append of Wal.record
  | Sync
  | Drop_pending
  | Truncate_below of int
  | Rollback of int
  | Corrupt_tail of int
  | Reset

let show_step = function
  | Append r -> "append " ^ show_record r
  | Sync -> "sync"
  | Drop_pending -> "drop_pending"
  | Truncate_below s -> Printf.sprintf "truncate_below %d" s
  | Rollback b -> Printf.sprintf "rollback_to_checkpoint %d" b
  | Corrupt_tail k -> Printf.sprintf "corrupt_tail %d" k
  | Reset -> "reset"

let model_watermark = 1 lsl 16

let model_create () =
  { image = ""; pending = []; m_appends = 0; m_syncs = 0; horizon = 0; watermark = model_watermark }

let has_seq = function
  | Wal.View_entered _ | Wal.View_change_started _ -> None
  | Wal.Accepted_pre_prepare { seq; _ }
  | Wal.Accepted_prepare { seq; _ }
  | Wal.Commit_cert { seq; _ }
  | Wal.Stable_checkpoint { seq; _ }
  | Wal.Client_row { Block_store.ce_seq = seq; _ } ->
      Some seq

(* Compaction as documented: below [seq] only view records and the
   latest checkpoint at or below [seq] (the first of equals) survive,
   that checkpoint moved to the front. *)
let model_compact ~seq records =
  if seq <= 0 then records
  else
    let indexed = List.mapi (fun i r -> (i, r)) records in
    let best =
      List.fold_left
        (fun best (i, r) ->
          match (r, best) with
          | Wal.Stable_checkpoint { seq = s; _ }, Some (_, b, _) when s <= seq && s > b ->
              Some (i, s, r)
          | Wal.Stable_checkpoint { seq = s; _ }, None when s <= seq -> Some (i, s, r)
          | _ -> best)
        None indexed
    in
    let kept =
      List.filter_map
        (fun (i, r) ->
          let live = match has_seq r with None -> true | Some s -> s >= seq in
          match best with
          | Some (j, _, _) when i = j -> None
          | _ -> if live then Some r else None)
        indexed
    in
    match best with Some (_, _, cp) -> cp :: kept | None -> kept

let model_replay m = model_compact ~seq:m.horizon (Wal.parse m.image)
let frames records = String.concat "" (List.map Wal.frame records)

(* Apply [step] to the model; returns what the log call returns, as a
   string, so the two can be compared. *)
let model_step m = function
  | Append r -> (
      match outcome (fun () -> Wal.frame r) with
      | Ok f ->
          m.pending <- m.pending @ [ f ];
          m.m_appends <- m.m_appends + 1;
          string_of_int (String.length f)
      | Error e -> "raised " ^ e)
  | Sync ->
      let dirty = m.pending <> [] in
      if dirty then begin
        m.image <- m.image ^ String.concat "" m.pending;
        m.pending <- [];
        m.m_syncs <- m.m_syncs + 1
      end;
      string_of_bool dirty
  | Drop_pending ->
      m.pending <- [];
      ""
  | Truncate_below seq ->
      if seq > m.horizon then m.horizon <- seq;
      if String.length m.image >= m.watermark then begin
        m.image <- frames (model_replay m);
        m.watermark <- max model_watermark (2 * String.length m.image)
      end;
      ""
  | Rollback before ->
      m.pending <- [];
      let records = Wal.parse m.image in
      let cut, cp =
        List.fold_left
          (fun (cut, cp) (i, r) ->
            match r with
            | Wal.Stable_checkpoint { seq; _ } when seq <= before && seq >= cp -> (i, seq)
            | _ -> (cut, cp))
          (-1, 0)
          (List.mapi (fun i r -> (i, r)) records)
      in
      m.image <- frames (List.filteri (fun i _ -> i <= cut) records);
      m.horizon <- 0;
      m.watermark <- max model_watermark (2 * String.length m.image);
      string_of_int cp
  | Corrupt_tail bytes ->
      let n = String.length m.image in
      let k = min bytes n in
      m.image <- String.sub m.image 0 (n - k) ^ String.make k '\xFF';
      ""
  | Reset ->
      m.image <- "";
      m.pending <- [];
      m.m_appends <- 0;
      m.m_syncs <- 0;
      m.horizon <- 0;
      m.watermark <- model_watermark;
      ""

let wal_step w = function
  | Append r -> (
      match outcome (fun () -> Wal.append w r) with
      | Ok n -> string_of_int n
      | Error e -> "raised " ^ e)
  | Sync -> string_of_bool (Wal.sync w)
  | Drop_pending ->
      Wal.drop_pending w;
      ""
  | Truncate_below seq ->
      Wal.truncate_below w ~seq;
      ""
  | Rollback before -> string_of_int (Wal.rollback_to_checkpoint w ~before)
  | Corrupt_tail bytes ->
      Wal.corrupt_tail w ~bytes;
      ""
  | Reset ->
      Wal.reset w;
      ""

(* Small seqs so truncation and rollback cut through the log, few edge
   ints so most appends succeed, and a head of synced multi-kilobyte
   records so the log often crosses the compaction watermark. *)
let wal_steps_gen =
  let open QCheck2.Gen in
  let record =
    wal_record_gen
      ~ints:
        (frequency
           [
             (40, int_range (-1000) 1000);
             (1, oneofl framable_edges);
             (1, oneofl overflowing_edges);
           ])
      ~strs:(frequency [ (1, string_size (int_bound 8)); (2, long_str 4_000 16_000) ])
      ~seqs:(frequency [ (12, int_range 0 40); (1, oneofl framable_edges) ])
      ~ops:(int_bound 4)
  in
  let step =
    frequency
      [
        (10, map (fun r -> Append r) record);
        (6, return Sync);
        (1, return Drop_pending);
        (4, map (fun s -> Truncate_below s) (int_range 0 45));
        (1, map (fun b -> Rollback b) (int_range 0 45));
        (1, map (fun k -> Corrupt_tail k) (int_range 0 40));
        (1, return Reset);
      ]
  in
  let+ head = list_size (int_range 4 16) record
  and+ tail = list_size (int_range 1 24) step in
  List.map (fun r -> Append r) head @ (Sync :: tail)

let wal_model_prop =
  qtest
    ~print:(fun steps -> String.concat "\n" (List.map show_step steps))
    "log matches a frame-string model over random operations" wal_steps_gen
    (fun steps ->
      let w = Wal.create () and m = model_create () in
      List.for_all
        (fun step ->
          String.equal (wal_step w step) (model_step m step)
          && Wal.durable_bytes w = String.length m.image
          && Wal.appends w = m.m_appends
          && Wal.syncs w = m.m_syncs
          && Wal.dirty w = (m.pending <> [])
          && Wal.replay w = model_replay m)
        steps)

(* FNV-1a folded to 32 bits after every byte. *)
let reference_checksum s =
  let h = ref 0x811C9DC5 in
  String.iter (fun c -> h := (!h lxor Char.code c) * 0x01000193 land 0xFFFFFFFF) s;
  !h

let wal_props =
  [
    qtest ~print:String.escaped "checksum masked once = masked per byte"
      QCheck2.Gen.(string_size (int_bound 600))
      (fun s -> Wal.checksum s = reference_checksum s);
    qtest "random record sequences replay exactly"
      QCheck2.Gen.(int_range 0 10_000)
      (fun seed ->
        let r = Sbft_sim.Rng.create (Int64.of_int ((seed * 31) + 5)) in
        let random_record () =
          match Sbft_sim.Rng.int r 7 with
          | 0 -> Wal.View_entered (Sbft_sim.Rng.int r 100)
          | 1 -> Wal.View_change_started (Sbft_sim.Rng.int r 100)
          | 2 ->
              Wal.Accepted_pre_prepare
                {
                  seq = Sbft_sim.Rng.int r 1000;
                  view = Sbft_sim.Rng.int r 10;
                  reqs =
                    [
                      bop ~client:(Sbft_sim.Rng.int r 20 - 1)
                        ~timestamp:(Sbft_sim.Rng.int r 50) "x";
                    ];
                }
          | 3 ->
              Wal.Accepted_prepare
                { seq = Sbft_sim.Rng.int r 1000; view = Sbft_sim.Rng.int r 10; tau = fe 7 }
          | 4 ->
              Wal.Commit_cert
                {
                  seq = Sbft_sim.Rng.int r 1000;
                  view = Sbft_sim.Rng.int r 10;
                  fast = Sbft_sim.Rng.bool r 0.5;
                }
          | 5 ->
              Wal.Stable_checkpoint
                { seq = Sbft_sim.Rng.int r 1000; digest = "d"; pi = fe 8 }
          | _ ->
              row ~client:(Sbft_sim.Rng.int r 20) ~timestamp:(Sbft_sim.Rng.int r 50)
                ~value:"v" ~seq:(Sbft_sim.Rng.int r 1000) ~index:(Sbft_sim.Rng.int r 4)
        in
        let records = List.init (1 + Sbft_sim.Rng.int r 30) (fun _ -> random_record ()) in
        let w = Wal.create () in
        List.iter (fun rc -> ignore (Wal.append w rc)) records;
        ignore (Wal.sync w);
        Wal.replay w = records);
  ]

let () =
  Alcotest.run "sbft_store"
    [
      ( "codec",
        [
          Alcotest.test_case "scalars" `Quick test_codec_scalars;
          Alcotest.test_case "truncated" `Quick test_codec_truncated;
          Alcotest.test_case "list" `Quick test_codec_list;
          Alcotest.test_case "hostile lengths" `Quick test_codec_hostile_lengths;
        ]
        @ codec_props );
      ( "kv_op",
        [
          Alcotest.test_case "roundtrip" `Quick test_kv_op_roundtrip;
          Alcotest.test_case "hostile lengths" `Quick test_kv_op_hostile;
        ]
        @ kv_count_props );
      ( "auth_store",
        [
          Alcotest.test_case "execute" `Quick test_auth_store_execute;
          Alcotest.test_case "digest deterministic" `Quick test_auth_store_digest_deterministic;
          Alcotest.test_case "digest history" `Quick test_auth_store_digest_depends_on_history;
          Alcotest.test_case "op proofs" `Quick test_auth_store_op_proof;
          Alcotest.test_case "proofs across blocks" `Quick test_auth_store_proof_across_blocks;
          Alcotest.test_case "query proofs" `Quick test_auth_store_query_proof;
          Alcotest.test_case "outputs and gc" `Quick test_auth_store_outputs_and_gc;
          Alcotest.test_case "snapshot" `Quick test_auth_store_snapshot;
          Alcotest.test_case "snapshot checked" `Quick test_auth_store_snapshot_checked;
          Alcotest.test_case "snapshot of an unhashed map" `Quick
            test_snapshot_of_unhashed_map;
          Alcotest.test_case "hostile proofs and snapshots" `Quick
            test_hostile_proofs_and_snapshots;
          Alcotest.test_case "shared exec cache" `Quick test_shared_exec_cache;
          Alcotest.test_case "clone" `Quick test_clone_independent;
          Alcotest.test_case "bootstrap" `Quick test_bootstrap;
        ]
        @ auth_store_props @ decoder_props );
      ("block_store", [ Alcotest.test_case "basics" `Quick test_block_store ]);
      ( "wal",
        [
          Alcotest.test_case "append/sync/replay" `Quick test_wal_roundtrip;
          Alcotest.test_case "crash loses unsynced tail" `Quick test_wal_crash_loses_tail;
          Alcotest.test_case "corrupt tail tolerated" `Quick test_wal_corrupt_tail;
          Alcotest.test_case "truncate below checkpoint" `Quick test_wal_truncate_below;
          Alcotest.test_case "truncation amortized" `Quick test_wal_truncate_amortized;
          Alcotest.test_case "byte counts across syncs" `Quick test_wal_bytes_across_syncs;
          Alcotest.test_case "golden frames" `Quick test_wal_golden_frames;
          Alcotest.test_case "signatures are not logged" `Quick test_wal_signatures_not_logged;
          Alcotest.test_case "short field string stops parse" `Quick
            test_wal_short_field_stops_parse;
          Alcotest.test_case "corrupt tail across syncs" `Quick test_wal_corrupt_across_syncs;
          Alcotest.test_case "compaction across syncs" `Quick
            test_wal_compaction_across_syncs;
          Alcotest.test_case "duplicate checkpoint compaction" `Quick
            test_wal_duplicate_checkpoint;
        ]
        @ wal_props @ wal_frame_props @ [ wal_model_prop ] );
    ]
