(* Tests for the cryptographic substrate: official test vectors for
   SHA-256 / Keccak-256 / HMAC, algebraic properties of the field (qcheck),
   Shamir reconstruction, threshold signature semantics including
   robustness against invalid shares, and Merkle structures. *)

open Sbft_crypto

let check = Alcotest.(check bool)
let check_str = Alcotest.(check string)
let rng () = Sbft_sim.Rng.create 2024L
let qtest name gen prop = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count:500 gen prop)

(* ------------------------------------------------------------------ *)
(* SHA-256: FIPS 180-4 vectors *)

let test_sha256_vectors () =
  check_str "empty" "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    (Sha256.hex (Sha256.digest ""));
  check_str "abc" "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (Sha256.hex (Sha256.digest "abc"));
  check_str "two blocks"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    (Sha256.hex (Sha256.digest "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"));
  check_str "million a"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Sha256.hex (Sha256.digest (String.make 1_000_000 'a')))

let test_sha256_incremental () =
  (* Feeding in odd-sized chunks must match one-shot hashing. *)
  let msg = String.init 1000 (fun i -> Char.chr (i mod 251)) in
  let ctx = Sha256.init () in
  let pos = ref 0 in
  let sizes = [ 1; 7; 63; 64; 65; 100; 300; 400 ] in
  List.iter
    (fun sz ->
      let take = min sz (String.length msg - !pos) in
      Sha256.feed ctx (String.sub msg !pos take);
      pos := !pos + take)
    sizes;
  Sha256.feed ctx (String.sub msg !pos (String.length msg - !pos));
  check_str "incremental = one-shot" (Sha256.hex (Sha256.digest msg))
    (Sha256.hex (Sha256.finalize ctx))

let test_sha256_length_boundaries () =
  (* Around the 55/56/64-byte padding boundaries. *)
  List.iter
    (fun len ->
      let m = String.make len 'x' in
      let d1 = Sha256.digest m in
      let ctx = Sha256.init () in
      Sha256.feed ctx m;
      check_str (Printf.sprintf "len %d" len) (Sha256.hex d1)
        (Sha256.hex (Sha256.finalize ctx)))
    [ 0; 1; 54; 55; 56; 57; 63; 64; 65; 119; 120; 127; 128 ]

(* The C compression against the OCaml loop it replaced ([Sha256_ref],
   test/), one-shot and through [init]/[feed]/[finalize] with random
   chunk splits.  The splits make [compress] run both on the context's
   buffer and at non-zero offsets into a fed chunk. *)
let sha256_oracle_props =
  let msg = QCheck2.Gen.(string_size (int_range 0 300)) in
  let cuts = QCheck2.Gen.(list_size (int_range 0 6) (int_range 0 300)) in
  [
    qtest "oracle digest" msg (fun m -> String.equal (Sha256.digest m) (Sha256_ref.digest m));
    qtest "oracle chunked feed" (QCheck2.Gen.pair msg cuts) (fun (m, cuts) ->
        let len = String.length m in
        let cuts = List.sort_uniq Int.compare (List.map (min len) cuts) in
        let ctx = Sha256.init () in
        let last =
          List.fold_left
            (fun pos cut ->
              Sha256.feed ctx (String.sub m pos (cut - pos));
              cut)
            0 cuts
        in
        Sha256.feed ctx (String.sub m last (len - last));
        String.equal (Sha256.finalize ctx) (Sha256_ref.digest m));
  ]

(* The compression itself, on any 8-word state and at offsets 0-16:
   the dispatched stub (SHA extensions on x86 CPUs that have them), the
   portable loop and the oracle must agree, so both C paths are checked
   on hosts where the digests above only reach one of them. *)
let sha256_compress_paths =
  let gen =
    QCheck2.Gen.(
      map
        (fun (h, b, off) -> (h, b, min off (String.length b - 64)))
        (triple
           (array_size (return 8) (map (fun x -> x land 0xFFFFFFFF) int))
           (string_size (int_range 64 80))
           (int_range 0 16)))
  in
  qtest "compress paths = oracle" gen (fun (h, b, off) ->
      let block = Bytes.of_string b in
      let run f =
        let s = Array.copy h in
        f s block off;
        s
      in
      let oracle = run (fun s -> Sha256_ref.compress s (Array.make 64 0)) in
      run Sha256.compress = oracle && run Sha256.compress_portable = oracle)

(* ------------------------------------------------------------------ *)
(* Keccak-256: Ethereum-flavor vectors *)

let test_keccak_vectors () =
  check_str "empty" "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470"
    (Sha256.hex (Keccak.digest ""));
  check_str "abc" "4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45"
    (Sha256.hex (Keccak.digest "abc"));
  check_str "fox"
    "4d741b6f1eb29cb2a9b9911c82f56fa8d73b04959d3d9d222895df6c0b28aa15"
    (Sha256.hex (Keccak.digest "The quick brown fox jumps over the lazy dog"))

let test_keccak_rate_boundaries () =
  (* 135/136/137 bytes cross the sponge-rate boundary; just check
     determinism and distinctness. *)
  let d135 = Keccak.digest (String.make 135 'a') in
  let d136 = Keccak.digest (String.make 136 'a') in
  let d137 = Keccak.digest (String.make 137 'a') in
  check "distinct" true (d135 <> d136 && d136 <> d137);
  check_str "deterministic" (Sha256.hex d136)
    (Sha256.hex (Keccak.digest (String.make 136 'a')))

(* ------------------------------------------------------------------ *)
(* HMAC-SHA256: RFC 4231 vectors *)

let test_hmac_vectors () =
  check_str "rfc4231 case 1"
    "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
    (Sha256.hex (Hmac.mac ~key:(String.make 20 '\x0b') "Hi There"));
  check_str "rfc4231 case 2"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    (Sha256.hex (Hmac.mac ~key:"Jefe" "what do ya want for nothing?"))

let test_hmac_verify () =
  let tag = Hmac.mac ~key:"k" "msg" in
  check "accepts" true (Hmac.verify ~key:"k" "msg" ~tag);
  check "rejects wrong msg" false (Hmac.verify ~key:"k" "msg2" ~tag);
  check "rejects wrong key" false (Hmac.verify ~key:"k2" "msg" ~tag)

(* ------------------------------------------------------------------ *)
(* Field: algebra (qcheck) *)

let field_gen =
  QCheck2.Gen.map (fun i -> Field.of_int64 (Int64.abs i)) QCheck2.Gen.int64


let field_props =
  [
    qtest "add comm" QCheck2.Gen.(pair field_gen field_gen) (fun (a, b) ->
        Field.equal (Field.add a b) (Field.add b a));
    qtest "mul comm" QCheck2.Gen.(pair field_gen field_gen) (fun (a, b) ->
        Field.equal (Field.mul a b) (Field.mul b a));
    qtest "add assoc" QCheck2.Gen.(triple field_gen field_gen field_gen)
      (fun (a, b, c) ->
        Field.equal (Field.add a (Field.add b c)) (Field.add (Field.add a b) c));
    qtest "mul assoc" QCheck2.Gen.(triple field_gen field_gen field_gen)
      (fun (a, b, c) ->
        Field.equal (Field.mul a (Field.mul b c)) (Field.mul (Field.mul a b) c));
    qtest "distributive" QCheck2.Gen.(triple field_gen field_gen field_gen)
      (fun (a, b, c) ->
        Field.equal
          (Field.mul a (Field.add b c))
          (Field.add (Field.mul a b) (Field.mul a c)));
    qtest "sub inverse of add" QCheck2.Gen.(pair field_gen field_gen) (fun (a, b) ->
        Field.equal (Field.sub (Field.add a b) b) a);
    qtest "neg" field_gen (fun a -> Field.equal (Field.add a (Field.neg a)) Field.zero);
    qtest "inv" field_gen (fun a ->
        Field.equal a Field.zero || Field.equal (Field.mul a (Field.inv a)) Field.one);
    qtest "bytes roundtrip" field_gen (fun a ->
        Field.equal a (Field.of_bytes (Field.to_bytes a)));
    qtest "pow matches repeated mul" field_gen (fun a ->
        let m5 = Field.mul a (Field.mul a (Field.mul a (Field.mul a a))) in
        Field.equal (Field.pow a 5L) m5);
  ]

let test_field_edge_cases () =
  check "p reduces to 0" true (Field.equal (Field.of_int64 Field.p) Field.zero);
  check "p+1 reduces to 1" true
    (Field.equal (Field.of_int64 (Int64.add Field.p 1L)) Field.one);
  check "max int64" true
    (let v = Field.of_int64 Int64.max_int in
     Int64.compare (Field.to_int64 v) Field.p < 0);
  check "mul by zero" true (Field.equal (Field.mul (Field.of_int 12345) Field.zero) Field.zero);
  check "of_digest nonzero" true
    (not (Field.equal (Field.of_digest (Sha256.digest "x")) Field.zero))

let test_field_known_products () =
  (* (2^60) * 2 = 2^61 = p + 1 ≡ 1. *)
  let two_pow_60 = Field.pow (Field.of_int 2) 60L in
  check "2^60 * 2 = 1" true (Field.equal (Field.mul two_pow_60 (Field.of_int 2)) Field.one);
  (* Fermat: a^(p-1) = 1. *)
  let a = Field.of_int 123456789 in
  check "fermat" true (Field.equal (Field.pow a (Int64.sub Field.p 1L)) Field.one)

(* Field against the int64 oracle it replaced ([Field64], test/): every
   operation must give the same canonical value, edge inputs included. *)
let edge_int64s = [ 0L; 1L; Int64.sub Field.p 1L; Field.p; Int64.max_int ]

let raw_gen =
  QCheck2.Gen.(oneof [ oneofl edge_int64s; int64; map Int64.abs int64 ])

let agrees f o = Int64.equal (Field.to_int64 f) (Field64.to_int64 o)

let raises_div_by_zero f =
  match f () with _ -> false | exception Division_by_zero -> true

let oracle_props =
  let pair = QCheck2.Gen.pair raw_gen raw_gen in
  let fo x = (Field.of_int64 x, Field64.of_int64 x) in
  let bytes8 = QCheck2.Gen.(string_size (return 8)) in
  [
    qtest "oracle of_int64" raw_gen (fun x ->
        let f, o = fo x in
        agrees f o);
    qtest "oracle add sub mul" pair (fun (x, y) ->
        let fx, ox = fo x and fy, oy = fo y in
        agrees (Field.add fx fy) (Field64.add ox oy)
        && agrees (Field.sub fx fy) (Field64.sub ox oy)
        && agrees (Field.mul fx fy) (Field64.mul ox oy));
    qtest "oracle neg inv" raw_gen (fun x ->
        let f, o = fo x in
        agrees (Field.neg f) (Field64.neg o)
        &&
        if Field.equal f Field.zero then
          raises_div_by_zero (fun () -> Field.inv f)
          && raises_div_by_zero (fun () -> Field64.inv o)
        else agrees (Field.inv f) (Field64.inv o));
    qtest "oracle pow" pair (fun (x, e) ->
        let f, o = fo x in
        agrees (Field.pow f e) (Field64.pow o e));
    qtest "oracle bytes" QCheck2.Gen.(pair raw_gen bytes8) (fun (x, b) ->
        let f, o = fo x in
        String.equal (Field.to_bytes f) (Field64.to_bytes o)
        && agrees (Field.of_bytes b) (Field64.of_bytes b));
    qtest "oracle of_digest" QCheck2.Gen.(string_size (int_range 8 40)) (fun d ->
        agrees (Field.of_digest d) (Field64.of_digest d));
  ]

let test_field_oracle_edges () =
  List.iter
    (fun x ->
      List.iter
        (fun y ->
          let fx = Field.of_int64 x and fy = Field.of_int64 y in
          let ox = Field64.of_int64 x and oy = Field64.of_int64 y in
          check "edge of_int64" true (agrees fx ox);
          check "edge mul" true (agrees (Field.mul fx fy) (Field64.mul ox oy));
          check "edge add" true (agrees (Field.add fx fy) (Field64.add ox oy));
          check "edge sub" true (agrees (Field.sub fx fy) (Field64.sub ox oy));
          check "edge pow" true (agrees (Field.pow fx y) (Field64.pow ox y)))
        edge_int64s)
    edge_int64s

(* ------------------------------------------------------------------ *)
(* Polynomial / Shamir *)

let test_polynomial_eval () =
  (* 3 + 2x + x^2 at x = 5 -> 38 *)
  let p = Polynomial.of_coeffs [| Field.of_int 3; Field.of_int 2; Field.of_int 1 |] in
  check "horner" true (Field.equal (Polynomial.eval p (Field.of_int 5)) (Field.of_int 38))

let test_lagrange_recovers_constant () =
  let r = rng () in
  let const = Field.of_int 777 in
  let p = Polynomial.random r ~degree:3 ~const in
  let points =
    List.map (fun x -> (Field.of_int x, Polynomial.eval p (Field.of_int x))) [ 1; 3; 5; 9 ]
  in
  check "interpolates" true (Field.equal (Polynomial.lagrange_at_zero points) const)

let test_lagrange_rejects_bad_points () =
  check "zero x" true
    (try
       ignore (Polynomial.lagrange_at_zero [ (Field.zero, Field.one) ]);
       false
     with Invalid_argument _ -> true);
  check "dup x" true
    (try
       ignore
         (Polynomial.lagrange_at_zero
            [ (Field.one, Field.one); (Field.one, Field.of_int 2) ]);
       false
     with Invalid_argument _ -> true)

let test_shamir_roundtrip () =
  let r = rng () in
  let secret = Field.random r in
  let shares = Shamir.deal r ~secret ~threshold:5 ~num_shares:12 in
  (* Any 5 shares reconstruct. *)
  let subset = [ shares.(0); shares.(3); shares.(7); shares.(8); shares.(11) ] in
  check "reconstruct" true (Field.equal (Shamir.reconstruct subset) secret);
  (* 4 shares give garbage (overwhelmingly). *)
  let small = [ shares.(0); shares.(3); shares.(7); shares.(8) ] in
  check "under threshold" false (Field.equal (Shamir.reconstruct small) secret)

let test_shamir_invalid_params () =
  let r = rng () in
  check "threshold > n" true
    (try
       ignore (Shamir.deal r ~secret:Field.one ~threshold:5 ~num_shares:4);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Threshold signatures *)

let test_threshold_basic () =
  let r = rng () in
  let scheme, keys = Threshold.setup r ~n:7 ~k:5 in
  let msg = "decision block 42" in
  let shares = Array.to_list (Array.map (fun k -> Threshold.share_sign k ~msg) keys) in
  (match Threshold.combine scheme ~msg shares with
  | Some s -> check "verifies" true (Threshold.verify scheme ~msg s)
  | None -> Alcotest.fail "combine failed");
  (* Exactly k shares suffice. *)
  let k_shares = List.filteri (fun i _ -> i < 5) shares in
  match Threshold.combine scheme ~msg k_shares with
  | Some s ->
      check "k shares verify" true (Threshold.verify scheme ~msg s);
      check "wrong msg rejected" false (Threshold.verify scheme ~msg:"other" s)
  | None -> Alcotest.fail "combine with k shares failed"

let test_threshold_insufficient () =
  let r = rng () in
  let scheme, keys = Threshold.setup r ~n:7 ~k:5 in
  let msg = "m" in
  let shares =
    List.filteri (fun i _ -> i < 4)
      (Array.to_list (Array.map (fun k -> Threshold.share_sign k ~msg) keys))
  in
  check "under threshold" true (Threshold.combine scheme ~msg shares = None)

let test_threshold_robustness () =
  (* k valid shares mixed with invalid/duplicate ones still combine. *)
  let r = rng () in
  let scheme, keys = Threshold.setup r ~n:7 ~k:5 in
  let msg = "m" in
  let valid =
    List.filteri (fun i _ -> i < 5)
      (Array.to_list (Array.map (fun k -> Threshold.share_sign k ~msg) keys))
  in
  let forged = [ Threshold.forge_invalid_share ~signer:6; Threshold.forge_invalid_share ~signer:7 ] in
  let dup = [ List.hd valid ] in
  (match Threshold.combine scheme ~msg (forged @ dup @ valid) with
  | Some s -> check "robust combine" true (Threshold.verify scheme ~msg s)
  | None -> Alcotest.fail "robust combine failed");
  (* 4 valid + forged junk must NOT combine. *)
  let four = List.filteri (fun i _ -> i < 4) valid in
  check "forged cannot fill threshold" true
    (Threshold.combine scheme ~msg (forged @ four) = None)

let test_threshold_share_verify () =
  let r = rng () in
  let scheme, keys = Threshold.setup r ~n:4 ~k:3 in
  let msg = "m" in
  let sh = Threshold.share_sign keys.(2) ~msg in
  check "valid share" true (Threshold.share_verify scheme ~msg sh);
  check "wrong msg" false (Threshold.share_verify scheme ~msg:"m2" sh);
  check "forged" false
    (Threshold.share_verify scheme ~msg (Threshold.forge_invalid_share ~signer:1))

let test_threshold_cross_scheme_isolation () =
  (* A signature under one scheme instance must not verify under another. *)
  let r = rng () in
  let s1, k1 = Threshold.setup r ~n:4 ~k:3 in
  let s2, _ = Threshold.setup r ~n:4 ~k:3 in
  let msg = "m" in
  let shares = Array.to_list (Array.map (fun k -> Threshold.share_sign k ~msg) k1) in
  let sig1 = Threshold.combine_exn s1 ~msg shares in
  check "isolated" false (Threshold.verify s2 ~msg sig1)

let check_int = Alcotest.(check int)

let test_combine_verified_optimistic () =
  (* k honest shares: the optimistic path combines and checks the single
     combined signature with zero per-share verifications. *)
  let r = rng () in
  let scheme, keys = Threshold.setup r ~n:7 ~k:5 in
  let msg = "block" in
  let shares = Array.to_list (Array.map (fun k -> Threshold.share_sign k ~msg) keys) in
  let o = Threshold.combine_verified scheme ~msg shares in
  check "no fallback" false o.Threshold.fallback;
  check_int "zero per-share checks" 0 o.Threshold.fresh_checks;
  check "no bad signers" true (List.length o.Threshold.bad_signers = 0);
  match o.Threshold.signature with
  | Some s ->
      check "verifies" true (Threshold.verify scheme ~msg s);
      check "matches pessimistic combine" true
        (Field.equal s (Threshold.combine_exn scheme ~msg shares))
  | None -> Alcotest.fail "optimistic combine failed"

let test_combine_verified_fallback () =
  (* A Byzantine share among the first k trips the combined check; the
     fallback identifies exactly the bad signer, evicts it, and still
     combines a valid signature from the honest remainder. *)
  let r = rng () in
  let scheme, keys = Threshold.setup r ~n:7 ~k:5 in
  let msg = "block" in
  let shares =
    Array.to_list
      (Array.mapi
         (fun i k ->
           if i = 1 then Threshold.forge_invalid_share ~signer:2
           else Threshold.share_sign k ~msg)
         keys)
  in
  let o = Threshold.combine_verified scheme ~msg shares in
  check "fallback ran" true o.Threshold.fallback;
  check "exactly the bad signer" true
    (match o.Threshold.bad_signers with [ 2 ] -> true | _ -> false);
  (* Identification checks every candidate share (all n of them here). *)
  check_int "fresh checks cover all candidates" 7 o.Threshold.fresh_checks;
  (match o.Threshold.signature with
  | Some s -> check "recombined verifies" true (Threshold.verify scheme ~msg s)
  | None -> Alcotest.fail "fallback should still combine from honest shares");
  (* Not enough honest shares left: identification still names the bad
     signers but no signature can form. *)
  let two_bad =
    List.filteri (fun i _ -> i < 5)
      (List.mapi
         (fun i sh ->
           if i < 2 then Threshold.forge_invalid_share ~signer:(i + 1) else sh)
         shares)
  in
  let o2 = Threshold.combine_verified scheme ~msg two_bad in
  check "fallback ran (2 bad)" true o2.Threshold.fallback;
  check "both bad signers named" true
    (match o2.Threshold.bad_signers with [ 1; 2 ] -> true | _ -> false);
  check "no signature from 3 honest" true (o2.Threshold.signature = None)

let test_combine_verified_under_threshold () =
  let r = rng () in
  let scheme, keys = Threshold.setup r ~n:7 ~k:5 in
  let msg = "m" in
  let four =
    List.filteri (fun i _ -> i < 4)
      (Array.to_list (Array.map (fun k -> Threshold.share_sign k ~msg) keys))
  in
  let o = Threshold.combine_verified scheme ~msg four in
  check "no signature" true (o.Threshold.signature = None);
  check "no fallback below threshold" false o.Threshold.fallback

let test_combine_coeff_memo () =
  (* Repeated signer sets reuse the memoized Lagrange coefficients and
     produce bit-identical signatures, regardless of share order. *)
  let r = rng () in
  let scheme, keys = Threshold.setup r ~n:7 ~k:5 in
  let sign msg = Array.to_list (Array.map (fun k -> Threshold.share_sign k ~msg) keys) in
  let o1 = Threshold.combine_verified scheme ~msg:"m1" (sign "m1") in
  check "first combination computes coefficients" false o1.Threshold.coeffs_cached;
  let o2 = Threshold.combine_verified scheme ~msg:"m2" (List.rev (sign "m2")) in
  check "second combination hits the memo" true o2.Threshold.coeffs_cached;
  (match o2.Threshold.signature with
  | Some s ->
      check "memoized result identical to uncached combine" true
        (Field.equal s (Threshold.combine_exn scheme ~msg:"m2" (sign "m2")))
  | None -> Alcotest.fail "memoized combine failed");
  (* A different signer subset misses the memo. *)
  let subset = List.filteri (fun i _ -> i >= 2) (sign "m3") in
  let o3 = Threshold.combine_verified scheme ~msg:"m3" subset in
  check "different signer set misses the memo" false o3.Threshold.coeffs_cached

(* The table coefficients equal the reference interpolation for random
   signer sets at every deployment size the benchmarks use (n = 4, 7,
   49, 193, 209) and at each quorum the protocol forms: pi (f+1), tau
   (2f+c+1), sigma (3f+c+1) and n.
   Small sets take the direct branch (k-1 <= n-k) and large ones the
   complement branch; both must be covered. *)
let configs =
  List.map
    (fun (f, c) -> Sbft_core.Config.sbft ~f ~c)
    [ (1, 0); (2, 0); (16, 0); (64, 0); (64, 8) ]

let schemes =
  lazy
    (let r = Sbft_sim.Rng.create 7L in
     List.map
       (fun config ->
         let n = Sbft_core.Config.n config in
         (config, fst (Threshold.setup r ~n ~k:(Sbft_core.Config.pi_threshold config))))
       configs)

let quorums config =
  Sbft_core.Config.
    [ pi_threshold config; tau_threshold config; sigma_threshold config; n config ]

(* A uniformly random k-subset of 1..n, ascending. *)
let random_signers r ~n ~k =
  let ids = Array.init n (fun i -> i + 1) in
  for i = n - 1 downto 1 do
    let j = Sbft_sim.Rng.int r (i + 1) in
    let x = ids.(i) in
    ids.(i) <- ids.(j);
    ids.(j) <- x
  done;
  let chosen = Array.sub ids 0 k in
  Array.sort Int.compare chosen;
  chosen

let table_coeffs_prop =
  qtest "table coefficients equal lagrange_coeffs_at_zero"
    QCheck2.Gen.(triple (int_bound (List.length configs - 1)) (int_bound 3) int)
    (fun (si, qi, seed) ->
      let config, scheme = List.nth (Lazy.force schemes) si in
      let n = Sbft_core.Config.n config in
      let k = List.nth (quorums config) qi in
      let signers = random_signers (Sbft_sim.Rng.create (Int64.of_int seed)) ~n ~k in
      let reference =
        Polynomial.lagrange_coeffs_at_zero (Array.map Field.of_int signers)
      in
      let table = Threshold.lagrange_coeffs scheme signers in
      Array.for_all2 Field.equal reference table)

let test_table_coeffs_branches () =
  let direct = ref 0 and complement = ref 0 in
  let r = Sbft_sim.Rng.create 3L in
  List.iter
    (fun (config, scheme) ->
      let n = Sbft_core.Config.n config in
      List.iter
        (fun k ->
          if k - 1 <= n - k then incr direct else incr complement;
          let signers = random_signers r ~n ~k in
          check (Printf.sprintf "n=%d k=%d" n k) true
            (Array.for_all2 Field.equal
               (Polynomial.lagrange_coeffs_at_zero (Array.map Field.of_int signers))
               (Threshold.lagrange_coeffs scheme signers)))
        (quorums config))
    (Lazy.force schemes);
  check "direct branch covered" true (!direct > 0);
  check "complement branch covered" true (!complement > 0);
  let _, scheme = List.hd (Lazy.force schemes) in
  check "unsorted signers rejected" true
    (match Threshold.lagrange_coeffs scheme [| 2; 1 |] with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* [coeffs_cached] over the memo's life: a miss, then hits, then a miss
   once other signer sets have pushed the memo past [memo_cap] and it
   was cleared. *)
let test_coeff_memo_cap () =
  let n = 80 and k = 3 in
  let scheme, keys = Threshold.setup (rng ()) ~n ~k in
  let h = Threshold.hash_to_field "block" in
  let cached signers =
    let shares = List.map (fun s -> Threshold.share_sign_h keys.(s - 1) ~h) signers in
    (Threshold.combine_verified_h scheme ~h shares).Threshold.coeffs_cached
  in
  let a = [ 1; 2; 3 ] in
  check "first use misses" false (cached a);
  check "second use hits" true (cached a);
  (* Every other 3-subset of 1..n, in lexicographic order. *)
  let others = ref [] in
  for i = n downto 1 do
    for j = n downto i + 1 do
      for l = n downto j + 1 do
        if not (i = 1 && j = 2 && l = 3) then others := [ i; j; l ] :: !others
      done
    done
  done;
  let others = Array.of_list !others in
  for i = 0 to Threshold.memo_cap - 1 do
    ignore (cached others.(i) : bool)
  done;
  check "still cached with memo_cap + 1 entries" true (cached a);
  check "one more set clears the memo" false (cached others.(Threshold.memo_cap));
  check "miss again after the reset" false (cached a)

let test_share_verify_cache () =
  let r = rng () in
  let scheme, keys = Threshold.setup r ~n:7 ~k:5 in
  let msg = "m" in
  let h = Threshold.hash_to_field msg in
  let sh = Threshold.share_sign keys.(0) ~msg in
  check "cached verify agrees (valid)" true (Threshold.share_verify_cached_h scheme ~h sh);
  check "cached verify agrees on re-delivery" true
    (Threshold.share_verify_cached_h scheme ~h sh);
  let forged = Threshold.forge_invalid_share ~signer:1 in
  check "cached verify agrees (forged)" false
    (Threshold.share_verify_cached_h scheme ~h forged);
  check "negative verdicts cached too" false
    (Threshold.share_verify_cached_h scheme ~h forged);
  (* The cache key includes the share value: a Byzantine signer
     re-sending a *different* share for the same message is re-checked,
     not answered from the stale verdict. *)
  check "same signer, fresh value, fresh verdict" true
    (Threshold.share_verify_cached_h scheme ~h sh);
  (* Fallback identification over already-cached shares computes zero
     fresh per-share verifications. *)
  let shares =
    Array.to_list
      (Array.mapi
         (fun i k ->
           if i = 1 then Threshold.forge_invalid_share ~signer:2
           else Threshold.share_sign k ~msg)
         keys)
  in
  let o1 = Threshold.combine_verified scheme ~msg shares in
  check "first fallback verifies afresh" true (o1.Threshold.fresh_checks > 0);
  let o2 = Threshold.combine_verified scheme ~msg shares in
  check "re-delivered shares answered from cache" true
    (Int.equal o2.Threshold.fresh_checks 0)

let threshold_props =
  [
    qtest "combine any k-subset" QCheck2.Gen.(pair (int_range 1 20) (int_range 0 1000))
      (fun (k_extra, seed) ->
        let r = Sbft_sim.Rng.create (Int64.of_int (seed + 17)) in
        let k = 1 + (k_extra mod 6) in
        let n = k + (seed mod 5) in
        let scheme, keys = Threshold.setup r ~n ~k in
        let msg = Printf.sprintf "msg-%d" seed in
        let all = Array.map (fun key -> Threshold.share_sign key ~msg) keys in
        let idx = Array.init n (fun i -> i) in
        Sbft_sim.Rng.shuffle r idx;
        let subset = List.init k (fun i -> all.(idx.(i))) in
        match Threshold.combine scheme ~msg subset with
        | Some s -> Threshold.verify scheme ~msg s
        | None -> false);
  ]

(* ------------------------------------------------------------------ *)
(* PKI *)

let test_pki () =
  let r = rng () in
  let kp1 = Pki.generate r ~id:1 and kp2 = Pki.generate r ~id:2 in
  let s = Pki.sign kp1 "hello" in
  check "verifies" true (Pki.verify (Pki.public_key kp1) "hello" s);
  check "wrong msg" false (Pki.verify (Pki.public_key kp1) "bye" s);
  check "wrong key" false (Pki.verify (Pki.public_key kp2) "hello" s);
  Alcotest.(check int) "key id" 1 (Pki.key_id (Pki.public_key kp1))

(* ------------------------------------------------------------------ *)
(* Merkle tree *)

let test_merkle_roundtrip () =
  let leaves = List.init 13 (fun i -> Printf.sprintf "op-%d" i) in
  let t = Merkle.build leaves in
  List.iteri
    (fun i leaf ->
      let proof = Merkle.prove t i in
      check (Printf.sprintf "leaf %d verifies" i) true
        (Merkle.verify ~root:(Merkle.root t) ~leaf proof);
      check "wrong leaf fails" false
        (Merkle.verify ~root:(Merkle.root t) ~leaf:"bogus" proof))
    leaves

let test_merkle_single_and_empty () =
  let t1 = Merkle.build [ "only" ] in
  let p = Merkle.prove t1 0 in
  check "single leaf" true (Merkle.verify ~root:(Merkle.root t1) ~leaf:"only" p);
  let t0 = Merkle.build [] in
  check "empty root defined" true (String.length (Merkle.root t0) = 32)

let test_merkle_tamper_detection () =
  let t = Merkle.build [ "a"; "b"; "c"; "d" ] in
  let ta = Merkle.build [ "a"; "b"; "x"; "d" ] in
  check "roots differ" false (String.equal (Merkle.root t) (Merkle.root ta));
  (* Proof from the tampered tree fails against the honest root. *)
  let p = Merkle.prove ta 2 in
  check "cross verify fails" false (Merkle.verify ~root:(Merkle.root t) ~leaf:"x" p)

let merkle_props =
  [
    qtest "all proofs verify for random sizes" QCheck2.Gen.(int_range 1 64)
      (fun n ->
        let leaves = List.init n (fun i -> Printf.sprintf "leaf%d" i) in
        let t = Merkle.build leaves in
        List.for_all
          (fun i -> Merkle.verify ~root:(Merkle.root t) ~leaf:(List.nth leaves i) (Merkle.prove t i))
          (List.init n (fun i -> i)));
  ]

(* ------------------------------------------------------------------ *)
(* Merkle map *)

let test_merkle_map_basic () =
  let m = Merkle_map.empty in
  let m = Merkle_map.set m ~key:"alice" ~value:"10" in
  let m = Merkle_map.set m ~key:"bob" ~value:"20" in
  Alcotest.(check int) "cardinal" 2 (Merkle_map.cardinal m);
  Alcotest.(check (option string)) "get alice" (Some "10") (Merkle_map.get m "alice");
  Alcotest.(check (option string)) "get carol" None (Merkle_map.get m "carol");
  let m2 = Merkle_map.set m ~key:"alice" ~value:"15" in
  Alcotest.(check int) "overwrite keeps cardinal" 2 (Merkle_map.cardinal m2);
  Alcotest.(check (option string)) "updated" (Some "15") (Merkle_map.get m2 "alice");
  (* Persistence: old version unchanged. *)
  Alcotest.(check (option string)) "old version" (Some "10") (Merkle_map.get m "alice")

let test_merkle_map_digest_changes () =
  let m = Merkle_map.set Merkle_map.empty ~key:"k" ~value:"v" in
  let m2 = Merkle_map.set m ~key:"k" ~value:"v2" in
  check "digest reflects value" false (String.equal (Merkle_map.root m) (Merkle_map.root m2))

let test_merkle_map_proofs () =
  let m = ref Merkle_map.empty in
  for i = 0 to 99 do
    m := Merkle_map.set !m ~key:(Printf.sprintf "key%d" i) ~value:(Printf.sprintf "val%d" i)
  done;
  let root = Merkle_map.root !m in
  for i = 0 to 99 do
    let key = Printf.sprintf "key%d" i in
    match Merkle_map.prove !m key with
    | None -> Alcotest.fail "missing proof"
    | Some p ->
        check "proof verifies" true
          (Merkle_map.verify ~root ~key ~value:(Printf.sprintf "val%d" i) p);
        check "wrong value fails" false (Merkle_map.verify ~root ~key ~value:"evil" p)
  done;
  check "absent key" true (Merkle_map.prove !m "nope" = None)

let test_merkle_map_remove () =
  let m = ref Merkle_map.empty in
  for i = 0 to 19 do
    m := Merkle_map.set !m ~key:(string_of_int i) ~value:"v"
  done;
  let with_all = !m in
  for i = 10 to 19 do
    m := Merkle_map.remove !m (string_of_int i)
  done;
  Alcotest.(check int) "cardinal" 10 (Merkle_map.cardinal !m);
  check "removed" true (Merkle_map.get !m "15" = None);
  check "kept" true (Merkle_map.get !m "5" = Some "v");
  (* Canonical shape: root after removals equals root of fresh build. *)
  let fresh = ref Merkle_map.empty in
  for i = 0 to 9 do
    fresh := Merkle_map.set !fresh ~key:(string_of_int i) ~value:"v"
  done;
  check_str "canonical root" (Sha256.hex (Merkle_map.root !fresh))
    (Sha256.hex (Merkle_map.root !m));
  check "remove absent is noop" true
    (Merkle_map.root (Merkle_map.remove with_all "zzz") = Merkle_map.root with_all)

let test_merkle_map_fold () =
  let m =
    List.fold_left
      (fun m (k, v) -> Merkle_map.set m ~key:k ~value:v)
      Merkle_map.empty
      [ ("a", "1"); ("b", "2"); ("c", "3") ]
  in
  let bindings = Merkle_map.fold (fun k v acc -> (k, v) :: acc) m [] in
  Alcotest.(check int) "three bindings" 3 (List.length bindings);
  check "contains b" true (List.mem ("b", "2") bindings)

(* Golden root of a fixed history (1,000 Puts, 100 removes, 50
   overwrites): when and how often nodes are hashed must not move a byte
   of the state digest replicas sign. *)
let test_merkle_map_golden_root () =
  let key i = Printf.sprintf "golden-key-%04d" i in
  let m = ref Merkle_map.empty in
  for i = 0 to 999 do
    m := Merkle_map.set !m ~key:(key i) ~value:(Printf.sprintf "v%d" i)
  done;
  for i = 900 to 999 do
    m := Merkle_map.remove !m (key i)
  done;
  for i = 0 to 49 do
    m := Merkle_map.set !m ~key:(key ((i * 10) + 3)) ~value:(Printf.sprintf "w%d" i)
  done;
  Alcotest.(check int) "cardinal" 900 (Merkle_map.cardinal !m);
  check_str "root" "bbc0a38db50c8e04fd61aeab8805dee6df9a658bf91efcfa7675f3442f353d90"
    (Sha256.hex (Merkle_map.root !m))

(* A random history of [steps] sets and removes over a small key space
   (so overwrites and removes hit live keys), applied to [m0] without
   forcing any hash.  Returns the map and the live bindings. *)
let random_history r ~steps m0 =
  let m = ref m0 in
  let live = Hashtbl.create 16 in
  Merkle_map.fold (fun k v () -> Hashtbl.replace live k v) m0 ();
  for _ = 1 to steps do
    let k = Printf.sprintf "k%d" (Sbft_sim.Rng.int r 24) in
    if Sbft_sim.Rng.bool r 0.3 then begin
      m := Merkle_map.remove !m k;
      Hashtbl.remove live k
    end
    else begin
      let v = Printf.sprintf "v%d" (Sbft_sim.Rng.int r 100) in
      m := Merkle_map.set !m ~key:k ~value:v;
      Hashtbl.replace live k v
    end
  done;
  (!m, live)

let merkle_map_props =
  [
    qtest "insertion order does not change root"
      QCheck2.Gen.(int_range 0 1000)
      (fun seed ->
        let r = Sbft_sim.Rng.create (Int64.of_int seed) in
        let n = 1 + Sbft_sim.Rng.int r 30 in
        let keys = Array.init n (fun i -> Printf.sprintf "k%d" i) in
        let build order =
          Array.fold_left
            (fun m k -> Merkle_map.set m ~key:k ~value:("v" ^ k))
            Merkle_map.empty order
        in
        let m1 = build keys in
        let shuffled = Array.copy keys in
        Sbft_sim.Rng.shuffle r shuffled;
        let m2 = build shuffled in
        String.equal (Merkle_map.root m1) (Merkle_map.root m2));
    qtest "set/remove sequences stay canonical"
      QCheck2.Gen.(int_range 0 500)
      (fun seed ->
        let r = Sbft_sim.Rng.create (Int64.of_int (seed * 31)) in
        let m = ref Merkle_map.empty in
        let reference = Hashtbl.create 16 in
        for _ = 1 to 40 do
          let k = Printf.sprintf "k%d" (Sbft_sim.Rng.int r 12) in
          if Sbft_sim.Rng.bool r 0.3 then begin
            m := Merkle_map.remove !m k;
            Hashtbl.remove reference k
          end
          else begin
            let v = Printf.sprintf "v%d" (Sbft_sim.Rng.int r 100) in
            m := Merkle_map.set !m ~key:k ~value:v;
            Hashtbl.replace reference k v
          end
        done;
        let fresh =
          Hashtbl.fold (fun k v acc -> Merkle_map.set acc ~key:k ~value:v) reference
            Merkle_map.empty
        in
        String.equal (Merkle_map.root fresh) (Merkle_map.root !m)
        && Merkle_map.cardinal !m = Hashtbl.length reference);
    qtest "root forced after every op equals root forced once"
      QCheck2.Gen.(int_range 0 500)
      (fun seed ->
        let history () = Sbft_sim.Rng.create (Int64.of_int ((seed * 17) + 3)) in
        let lazy_map, _ = random_history (history ()) ~steps:60 Merkle_map.empty in
        (* Same history, one op at a time, hashing after each. *)
        let r = history () in
        let eager =
          List.fold_left
            (fun m () ->
              let m, _ = random_history r ~steps:1 m in
              ignore (Merkle_map.root m);
              m)
            Merkle_map.empty (List.init 60 (fun _ -> ()))
        in
        String.equal (Merkle_map.root lazy_map) (Merkle_map.root eager));
    qtest "proofs from an unforced batch verify against the lazy root"
      QCheck2.Gen.(int_range 0 500)
      (fun seed ->
        let r = Sbft_sim.Rng.create (Int64.of_int ((seed * 13) + 1)) in
        let base, _ = random_history r ~steps:30 Merkle_map.empty in
        ignore (Merkle_map.root base);
        let m, live = random_history r ~steps:30 base in
        (* Prove first, so each proof forces only its own siblings and
           the root is computed afterwards over a partly hashed tree. *)
        let proofs =
          Hashtbl.fold (fun k v acc -> (k, v, Merkle_map.prove m k) :: acc) live []
        in
        let root = Merkle_map.root m in
        List.for_all
          (fun (key, value, p) ->
            match p with
            | Some p -> Merkle_map.verify ~root ~key ~value p
            | None -> false)
          proofs
        && List.for_all
             (fun i ->
               let k = Printf.sprintf "k%d" i in
               Hashtbl.mem live k || Option.is_none (Merkle_map.prove m k))
             (List.init 24 Fun.id));
  ]

(* ------------------------------------------------------------------ *)
(* Cost model sanity *)

let test_cost_model_monotone () =
  check "batch verify grows" true
    (Cost_model.bls_batch_verify 10 < Cost_model.bls_batch_verify 100);
  check "combine grows" true (Cost_model.bls_combine 10 < Cost_model.bls_combine 100);
  check "group cheaper than threshold" true
    (Cost_model.group_combine 100 < Cost_model.bls_combine 100);
  check "rsa sign dominates verify" true (Cost_model.rsa_verify < Cost_model.rsa_sign);
  check "all positive" true
    (List.for_all (fun x -> x > 0)
       [
         Cost_model.bls_share_sign; Cost_model.bls_share_verify; Cost_model.bls_verify;
         Cost_model.rsa_sign; Cost_model.rsa_verify; Cost_model.sha256 100;
         Cost_model.kv_execute_op; Cost_model.persist_block 1000; Cost_model.evm_execute_tx;
       ])

let () =
  Alcotest.run "sbft_crypto"
    [
      ( "sha256",
        [
          Alcotest.test_case "vectors" `Quick test_sha256_vectors;
          Alcotest.test_case "incremental" `Quick test_sha256_incremental;
          Alcotest.test_case "length boundaries" `Quick test_sha256_length_boundaries;
        ]
        @ sha256_oracle_props @ [ sha256_compress_paths ] );
      ( "keccak",
        [
          Alcotest.test_case "vectors" `Quick test_keccak_vectors;
          Alcotest.test_case "rate boundaries" `Quick test_keccak_rate_boundaries;
        ] );
      ( "hmac",
        [
          Alcotest.test_case "vectors" `Quick test_hmac_vectors;
          Alcotest.test_case "verify" `Quick test_hmac_verify;
        ] );
      ( "field",
        [
          Alcotest.test_case "edge cases" `Quick test_field_edge_cases;
          Alcotest.test_case "known products" `Quick test_field_known_products;
          Alcotest.test_case "oracle edge values" `Quick test_field_oracle_edges;
        ]
        @ field_props @ oracle_props );
      ( "shamir",
        [
          Alcotest.test_case "polynomial eval" `Quick test_polynomial_eval;
          Alcotest.test_case "lagrange constant" `Quick test_lagrange_recovers_constant;
          Alcotest.test_case "lagrange bad points" `Quick test_lagrange_rejects_bad_points;
          Alcotest.test_case "roundtrip" `Quick test_shamir_roundtrip;
          Alcotest.test_case "invalid params" `Quick test_shamir_invalid_params;
        ] );
      ( "threshold",
        [
          Alcotest.test_case "basic" `Quick test_threshold_basic;
          Alcotest.test_case "insufficient" `Quick test_threshold_insufficient;
          Alcotest.test_case "robustness" `Quick test_threshold_robustness;
          Alcotest.test_case "share verify" `Quick test_threshold_share_verify;
          Alcotest.test_case "scheme isolation" `Quick test_threshold_cross_scheme_isolation;
          Alcotest.test_case "optimistic combine" `Quick test_combine_verified_optimistic;
          Alcotest.test_case "fallback identification" `Quick test_combine_verified_fallback;
          Alcotest.test_case "under threshold" `Quick test_combine_verified_under_threshold;
          Alcotest.test_case "coefficient memo" `Quick test_combine_coeff_memo;
          Alcotest.test_case "coefficient memo cap" `Quick test_coeff_memo_cap;
          Alcotest.test_case "table coefficient branches" `Quick test_table_coeffs_branches;
          table_coeffs_prop;
          Alcotest.test_case "verify cache" `Quick test_share_verify_cache;
        ]
        @ threshold_props );
      ("pki", [ Alcotest.test_case "sign/verify" `Quick test_pki ]);
      ( "merkle",
        [
          Alcotest.test_case "roundtrip" `Quick test_merkle_roundtrip;
          Alcotest.test_case "single/empty" `Quick test_merkle_single_and_empty;
          Alcotest.test_case "tamper" `Quick test_merkle_tamper_detection;
        ]
        @ merkle_props );
      ( "merkle_map",
        [
          Alcotest.test_case "basic" `Quick test_merkle_map_basic;
          Alcotest.test_case "digest changes" `Quick test_merkle_map_digest_changes;
          Alcotest.test_case "proofs" `Quick test_merkle_map_proofs;
          Alcotest.test_case "remove" `Quick test_merkle_map_remove;
          Alcotest.test_case "fold" `Quick test_merkle_map_fold;
          Alcotest.test_case "golden root" `Quick test_merkle_map_golden_root;
        ]
        @ merkle_map_props );
      ("cost_model", [ Alcotest.test_case "monotone" `Quick test_cost_model_monotone ]);
    ]
