type t = {
  n : int;
  k : int;
  master : Field.t; (* verification key (simulation: equals the secret) *)
  share_vks : Field.t array; (* per-signer verification keys, index signer-1 *)
  (* Lagrange coefficients at zero, memoized per (sorted) signer set.
     Collectors see the same k signers slot after slot on the steady
     path, so the batch-inversion in Polynomial.lagrange_coeffs_at_zero
     runs once per signer set, not once per slot. *)
  coeff_memo : (string, Field.t array) Hashtbl.t;
  (* Per-(signer, message, value) share-verification verdicts: a share
     re-delivered by the network (retransmission, multiple collectors on
     one node, view-change re-validation) is never verified twice. *)
  verify_memo : (string, bool) Hashtbl.t;
}

type signing_key = { signer : int; secret_share : Field.t }

type share = { signer : int; value : Field.t }

type signature = Field.t

(* Memo tables are caches of pure-function results keyed by their full
   inputs, so lookups can never disagree with recomputation; bounding
   them only bounds memory on very long runs. *)
let memo_cap = 1 lsl 16

let setup rng ~n ~k =
  if k < 1 || k > n then invalid_arg "Threshold.setup: need 1 <= k <= n";
  let master = Field.random rng in
  let shares = Shamir.deal rng ~secret:master ~threshold:k ~num_shares:n in
  let share_vks = Array.map (fun (s : Shamir.share) -> s.value) shares in
  let keys =
    Array.map
      (fun (s : Shamir.share) -> { signer = s.index; secret_share = s.value })
      shares
  in
  ( { n; k; master; share_vks;
      coeff_memo = Hashtbl.create 64;
      verify_memo = Hashtbl.create 1024 },
    keys )

let n t = t.n
let threshold t = t.k

let hash_to_field msg = Field.of_digest (Sha256.digest msg)

let share_sign (sk : signing_key) ~msg =
  { signer = sk.signer; value = Field.mul sk.secret_share (hash_to_field msg) }

let share_verify_h t ~h sh =
  sh.signer >= 1 && sh.signer <= t.n
  && Field.equal sh.value (Field.mul t.share_vks.(sh.signer - 1) h)

let share_verify t ~msg sh = share_verify_h t ~h:(hash_to_field msg) sh

(* ------------------------------------------------------------------ *)
(* Verification cache *)

let memo_guard tbl = if Hashtbl.length tbl > memo_cap then Hashtbl.reset tbl

(* The cache key binds the digest, the signer and the claimed value: a
   Byzantine signer re-sending a *different* share for the same message
   misses the cache and is verified afresh. *)
let verify_key ~digest sh =
  Printf.sprintf "%s|%d|%Ld" digest sh.signer (Field.to_int64 sh.value)

(* [fresh] counts verifications actually performed (cache misses) so
   callers can charge simulated CPU for exactly the work done. *)
let share_verify_memo t ~digest ~h ~fresh sh =
  let key = verify_key ~digest sh in
  match Hashtbl.find_opt t.verify_memo key with
  | Some ok -> ok
  | None ->
      memo_guard t.verify_memo;
      incr fresh;
      let ok = share_verify_h t ~h sh in
      Hashtbl.replace t.verify_memo key ok;
      ok

let share_verify_cached t ~msg sh =
  let fresh = ref 0 in
  share_verify_memo t ~digest:(Sha256.digest msg) ~h:(hash_to_field msg) ~fresh sh

(* ------------------------------------------------------------------ *)
(* Robust (per-share-verifying) combination — the pessimistic baseline *)

let combine t ~msg shares =
  (* Robust combination: drop invalid shares and duplicate signers, then
     interpolate the first k valid ones.  The message hash is computed
     once for the whole batch. *)
  let h = hash_to_field msg in
  let seen = Hashtbl.create 16 in
  let valid =
    List.filter
      (fun sh ->
        share_verify_h t ~h sh
        && not (Hashtbl.mem seen sh.signer)
        &&
        (Hashtbl.add seen sh.signer ();
         true))
      shares
  in
  if List.length valid < t.k then None
  else begin
    let chosen = List.filteri (fun i _ -> i < t.k) valid in
    let points =
      List.map (fun sh -> (Field.of_int sh.signer, sh.value)) chosen
    in
    Some (Polynomial.lagrange_at_zero points)
  end

let combine_exn t ~msg shares =
  match combine t ~msg shares with
  | Some s -> s
  | None -> failwith "Threshold.combine_exn: not enough valid shares"

let verify t ~msg sig_ = Field.equal sig_ (Field.mul t.master (hash_to_field msg))

(* ------------------------------------------------------------------ *)
(* Optimistic combine-then-verify (paper §IV linearity argument) *)

type outcome = {
  signature : signature option;
  fallback : bool;
  bad_signers : int list;
  coeffs_cached : bool;
  recombine_cached : bool;
  fresh_checks : int;
}

let signer_set_key signers =
  String.concat "," (List.map string_of_int signers)

let coeffs_for t signers =
  let key = signer_set_key signers in
  match Hashtbl.find_opt t.coeff_memo key with
  | Some coeffs -> (coeffs, true)
  | None ->
      memo_guard t.coeff_memo;
      let xs = Array.of_list (List.map Field.of_int signers) in
      let coeffs = Polynomial.lagrange_coeffs_at_zero xs in
      Hashtbl.replace t.coeff_memo key coeffs;
      (coeffs, false)

(* Deduplicate by signer (first occurrence wins, matching [combine]) and
   sort ascending: a canonical order makes the coefficient memo hit for
   any arrival order of the same signer set. *)
let dedup_sorted t shares =
  let seen = Hashtbl.create 16 in
  let distinct =
    List.filter
      (fun sh ->
        sh.signer >= 1 && sh.signer <= t.n
        && (not (Hashtbl.mem seen sh.signer))
        &&
        (Hashtbl.add seen sh.signer ();
         true))
      shares
  in
  List.sort (fun a b -> Int.compare a.signer b.signer) distinct

let interpolate_prefix t shares =
  let chosen = List.filteri (fun i _ -> i < t.k) shares in
  let signers = List.map (fun sh -> sh.signer) chosen in
  let coeffs, cached = coeffs_for t signers in
  let ys = Array.of_list (List.map (fun sh -> sh.value) chosen) in
  (Polynomial.interpolate_at_zero ~coeffs ys, cached)

let combine_verified t ~msg shares =
  let h = hash_to_field msg in
  let candidates = dedup_sorted t shares in
  if List.length candidates < t.k then
    { signature = None; fallback = false; bad_signers = [];
      coeffs_cached = false; recombine_cached = false; fresh_checks = 0 }
  else begin
    (* Optimistic path: combine k shares with zero per-share checks and
       verify the single combined signature. *)
    let sig_opt, coeffs_cached = interpolate_prefix t candidates in
    if Field.equal sig_opt (Field.mul t.master h) then
      { signature = Some sig_opt; fallback = false; bad_signers = [];
        coeffs_cached; recombine_cached = false; fresh_checks = 0 }
    else begin
      (* Robust fallback: identify invalid shares per signer (through
         the verification cache, so re-delivered shares cost nothing),
         exclude exactly the bad signers, and recombine from the valid
         remainder.  The recombined signature needs no combined check:
         every constituent share was just verified individually. *)
      let digest = Sha256.digest msg in
      let fresh = ref 0 in
      let valid, bad =
        List.partition (share_verify_memo t ~digest ~h ~fresh) candidates
      in
      let bad_signers = List.map (fun sh -> sh.signer) bad in
      if List.length valid < t.k then
        { signature = None; fallback = true; bad_signers;
          coeffs_cached; recombine_cached = false; fresh_checks = !fresh }
      else begin
        let sig_, recombine_cached = interpolate_prefix t valid in
        { signature = Some sig_; fallback = true; bad_signers;
          coeffs_cached; recombine_cached; fresh_checks = !fresh }
      end
    end
  end

let forge_invalid_share ~signer = { signer; value = Field.of_int 0xDEADBEEF }

let signature_bytes (s : signature) = Field.to_bytes s

let signature_size = 33
let share_size = 37
