(* Lagrange tables for the abscissae 1..n (see [table_coeffs]). *)
type tables = {
  nat : Field.t array; (* nat.(d) = d *)
  inv : Field.t array; (* inv.(d) = 1/d, d >= 1 *)
  binom : Field.t array; (* binom.(i) = C(n, i) *)
}

type t = {
  n : int;
  k : int;
  master : Field.t; (* verification key (simulation: equals the secret) *)
  share_vks : Field.t array; (* per-signer verification keys, index signer-1 *)
  tables : tables Lazy.t;
  (* Lagrange coefficients at zero, memoized per (sorted) signer set.
     Collectors see the same k signers slot after slot on the steady
     path, so the coefficient vector is built once per signer set, not
     once per slot. *)
  coeff_memo : (string, Field.t array) Hashtbl.t;
  (* Per-(point, signer, value) share-verification verdicts: a share
     re-delivered by the network (retransmission, multiple collectors on
     one node, view-change re-validation) is never verified twice. *)
  verify_memo : (int * int * int, bool) Hashtbl.t;
}

type signing_key = { signer : int; secret_share : Field.t }

type share = { signer : int; value : Field.t }

type signature = Field.t

(* Memo tables are caches of pure-function results keyed by their full
   inputs, so lookups can never disagree with recomputation; bounding
   them only bounds memory on very long runs. *)
let memo_cap = 1 lsl 16

(* Factorials, one inversion, then inverse factorials: O(n)
   multiplications for all three tables. *)
let make_tables n =
  let nat = Array.init (n + 1) Field.of_int in
  let fact = Array.make (n + 1) Field.one in
  for i = 1 to n do
    fact.(i) <- Field.mul fact.(i - 1) nat.(i)
  done;
  let inv_fact = Array.make (n + 1) Field.one in
  inv_fact.(n) <- Field.inv fact.(n);
  for i = n downto 1 do
    inv_fact.(i - 1) <- Field.mul inv_fact.(i) nat.(i)
  done;
  let inv d = if d = 0 then Field.zero else Field.mul inv_fact.(d) fact.(d - 1) in
  let binom i = Field.mul fact.(n) (Field.mul inv_fact.(i) inv_fact.(n - i)) in
  { nat; inv = Array.init (n + 1) inv; binom = Array.init (n + 1) binom }

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
      tables = lazy (make_tables n);
      coeff_memo = Hashtbl.create 64;
      verify_memo = Hashtbl.create 1024 },
    keys )

let hash_to_field msg = Field.of_digest (Sha256.digest msg)

let share_sign_h (sk : signing_key) ~h =
  { signer = sk.signer; value = Field.mul sk.secret_share h }

let share_sign sk ~msg = share_sign_h sk ~h:(hash_to_field msg)

let share_verify_h t ~h sh =
  sh.signer >= 1 && sh.signer <= t.n
  && Field.equal sh.value (Field.mul t.share_vks.(sh.signer - 1) h)

let share_verify t ~msg sh = share_verify_h t ~h:(hash_to_field msg) sh

(* ------------------------------------------------------------------ *)
(* Verification cache *)

let memo_guard tbl = if Hashtbl.length tbl > memo_cap then Hashtbl.reset tbl

(* The verdict is a function of the message point, the signer and the
   claimed value alone, so the cache key is exactly those: a Byzantine
   signer re-sending a *different* share for the same message misses
   the cache and is verified afresh.

   [fresh] counts verifications actually performed (cache misses) so
   callers can charge simulated CPU for exactly the work done. *)
let share_verify_memo t ~(h : Field.t) ~fresh (sh : share) =
  let key = ((h :> int), sh.signer, (sh.value :> int)) in
  match Hashtbl.find_opt t.verify_memo key with
  | Some ok -> ok
  | None ->
      memo_guard t.verify_memo;
      incr fresh;
      let ok = share_verify_h t ~h sh in
      Hashtbl.replace t.verify_memo key ok;
      ok

let share_verify_cached_h t ~h sh = share_verify_memo t ~h ~fresh:(ref 0) sh

(* ------------------------------------------------------------------ *)
(* Lagrange coefficients at zero from the scheme's tables.

   Signers are the abscissae 1..n, so for a sorted signer set S the
   coefficient of signer i is
     l_i = prod_{j in S, j <> i} j / (j - i)
         = (prod_{j in S} j) / i * prod_{j in S, j <> i} 1 / (j - i)
   and, dividing the full set's coefficient (-1)^(i-1) C(n, i) by the
   factors of the signers left out,
     l_i = (-1)^(i-1) C(n, i) * prod_{j not in S} (j - i) / j.
   The first form takes k - 1 multiplications by table inverses, the
   second n - k multiplications by small integers (the product of the
   1/j is shared by every i), and both need no inversion; the cheaper
   one is used.  In either form the signs multiply out to (-1)^idx,
   where idx is i's rank in S.  The results equal
   {!Polynomial.lagrange_coeffs_at_zero} (the field is exact). *)
let table_coeffs t (xs : int array) =
  let tb = Lazy.force t.tables in
  let k = Array.length xs in
  let signed idx c = if idx land 1 = 1 then Field.neg c else c in
  if k - 1 <= t.n - k then begin
    let all = Array.fold_left (fun acc x -> Field.mul acc tb.nat.(x)) Field.one xs in
    Array.mapi
      (fun idx xi ->
        let c = ref (Field.mul all tb.inv.(xi)) in
        for jdx = 0 to k - 1 do
          if not (Int.equal jdx idx) then c := Field.mul !c tb.inv.(abs (xs.(jdx) - xi))
        done;
        signed idx !c)
      xs
  end
  else begin
    let member = Array.make (t.n + 1) false in
    Array.iter (fun x -> member.(x) <- true) xs;
    let rest = List.filter (fun j -> not member.(j)) (List.init t.n (fun j -> j + 1)) in
    let inv_rest = List.fold_left (fun acc j -> Field.mul acc tb.inv.(j)) Field.one rest in
    Array.mapi
      (fun idx xi ->
        let c =
          List.fold_left
            (fun c j -> Field.mul c tb.nat.(abs (j - xi)))
            (Field.mul tb.binom.(xi) inv_rest) rest
        in
        signed idx c)
      xs
  end

let lagrange_coeffs t signers =
  Array.iteri
    (fun i s ->
      if s < 1 || s > t.n || (i > 0 && s <= signers.(i - 1)) then
        invalid_arg "Threshold.lagrange_coeffs: need ascending signers in 1..n")
    signers;
  table_coeffs t signers

(* Sort the points by signer and interpolate through the tables. *)
let interpolate t points =
  let pts = Array.of_list points in
  Array.sort (fun (a : share) b -> Int.compare a.signer b.signer) pts;
  let coeffs = table_coeffs t (Array.map (fun (sh : share) -> sh.signer) pts) in
  Polynomial.interpolate_at_zero ~coeffs (Array.map (fun (sh : share) -> sh.value) pts)

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
  else Some (interpolate t (List.filteri (fun i _ -> i < t.k) valid))

let combine_exn t ~msg shares =
  match combine t ~msg shares with
  | Some s -> s
  | None -> failwith "Threshold.combine_exn: not enough valid shares"

let verify_h t ~h sig_ = Field.equal sig_ (Field.mul t.master h)
let verify t ~msg sig_ = verify_h t ~h:(hash_to_field msg) sig_

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

(* A signer set as a bitmap over 1..n: equal keys are exactly equal
   sets, and building one costs a byte write per signer. *)
let signer_set_key t signers =
  let b = Bytes.make ((t.n / 8) + 1) '\000' in
  List.iter
    (fun s ->
      Bytes.unsafe_set b (s lsr 3)
        (Char.unsafe_chr (Char.code (Bytes.unsafe_get b (s lsr 3)) lor (1 lsl (s land 7)))))
    signers;
  Bytes.unsafe_to_string b

let coeffs_for t signers =
  let key = signer_set_key t signers in
  match Hashtbl.find_opt t.coeff_memo key with
  | Some coeffs -> (coeffs, true)
  | None ->
      memo_guard t.coeff_memo;
      let coeffs = table_coeffs t (Array.of_list signers) in
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

let combine_verified_h t ~h shares =
  let candidates = dedup_sorted t shares in
  if List.length candidates < t.k then
    { signature = None; fallback = false; bad_signers = [];
      coeffs_cached = false; recombine_cached = false; fresh_checks = 0 }
  else begin
    (* Optimistic path: combine k shares with zero per-share checks and
       verify the single combined signature. *)
    let sig_opt, coeffs_cached = interpolate_prefix t candidates in
    if verify_h t ~h sig_opt then
      { signature = Some sig_opt; fallback = false; bad_signers = [];
        coeffs_cached; recombine_cached = false; fresh_checks = 0 }
    else begin
      (* Robust fallback: identify invalid shares per signer (through
         the verification cache, so re-delivered shares cost nothing),
         exclude exactly the bad signers, and recombine from the valid
         remainder.  The recombined signature needs no combined check:
         every constituent share was just verified individually. *)
      let fresh = ref 0 in
      let valid, bad = List.partition (share_verify_memo t ~h ~fresh) candidates in
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

let combine_verified t ~msg shares = combine_verified_h t ~h:(hash_to_field msg) shares

let forge_invalid_share ~signer = { signer; value = Field.of_int 0xDEADBEEF }

let signature_bytes (s : signature) = Field.to_bytes s

let signature_size = 33
let share_size = 37
