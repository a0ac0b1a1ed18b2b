type t = { n : int; master : Field.t; share_vks : Field.t array }
type signing_key = { signer : int; secret_share : Field.t }
type share = { signer : int; value : Field.t }
type signature = Field.t

let setup rng ~n =
  if n < 1 then invalid_arg "Group_sig.setup: n >= 1";
  let secrets = Array.init n (fun _ -> Field.random rng) in
  let master = Array.fold_left Field.add Field.zero secrets in
  let keys = Array.mapi (fun i s -> { signer = i + 1; secret_share = s }) secrets in
  ({ n; master; share_vks = secrets }, keys)

let n t = t.n

let hash_to_field = Threshold.hash_to_field

let share_sign (sk : signing_key) ~msg =
  { signer = sk.signer; value = Field.mul sk.secret_share (hash_to_field msg) }

let share_verify t ~msg sh =
  sh.signer >= 1 && sh.signer <= t.n
  && Field.equal sh.value (Field.mul t.share_vks.(sh.signer - 1) (hash_to_field msg))

let combine t ~msg shares =
  let by_signer = Array.make t.n None in
  List.iter
    (fun sh ->
      if share_verify t ~msg sh && by_signer.(sh.signer - 1) = None then
        by_signer.(sh.signer - 1) <- Some sh.value)
    shares;
  if Array.exists (fun o -> o = None) by_signer then None
  else
    Some
      (Array.fold_left
         (fun acc o -> match o with Some v -> Field.add acc v | None -> acc)
         Field.zero by_signer)

let verify t ~msg sig_ = Field.equal sig_ (Field.mul t.master (hash_to_field msg))

type outcome = {
  signature : signature option;
  fallback : bool;
  bad_signers : int list;
}

let combine_verified t ~msg shares =
  let by_signer = Array.make t.n None in
  List.iter
    (fun sh ->
      if sh.signer >= 1 && sh.signer <= t.n && by_signer.(sh.signer - 1) = None
      then by_signer.(sh.signer - 1) <- Some sh.value)
    shares;
  if Array.exists (fun o -> o = None) by_signer then
    { signature = None; fallback = false; bad_signers = [] }
  else begin
    (* Optimistic: sum all n shares unchecked, verify the sum once. *)
    let sum =
      Array.fold_left
        (fun acc o -> match o with Some v -> Field.add acc v | None -> acc)
        Field.zero by_signer
    in
    if verify t ~msg sum then
      { signature = Some sum; fallback = false; bad_signers = [] }
    else begin
      (* n-of-n admits no recombination after excluding a bad signer;
         identification only names the culprits so the caller can fall
         back to the threshold scheme without them. *)
      let h = hash_to_field msg in
      let bad = ref [] in
      Array.iteri
        (fun i o ->
          match o with
          | Some v when not (Field.equal v (Field.mul t.share_vks.(i) h)) ->
              bad := (i + 1) :: !bad
          | _ -> ())
        by_signer;
      { signature = None; fallback = true; bad_signers = List.rev !bad }
    end
  end
