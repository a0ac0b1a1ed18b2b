(* Priced calls (see priced.mli).  R10 requires an [Engine.charge] in
   every function here that calls a priced primitive; test_core_units'
   price table checks each amount. *)

open Sbft_sim
open Sbft_crypto
module Tally = Cost_model.Tally
module Auth_store = Sbft_store.Auth_store
module Wal = Sbft_store.Wal

(* Threshold signatures *)

let sign_block ctx keys (my : Keys.replica_keys) ~h =
  Engine.charge ctx (Tally.note "share_sign" (2 * Cost_model.bls_share_sign));
  let point = Keys.hash_to_field keys h in
  (Threshold.share_sign_h my.Keys.sigma_sk ~h:point, Threshold.share_sign_h my.Keys.tau_sk ~h:point)

let sign_share ctx keys sk ~msg =
  Engine.charge ctx (Tally.note "share_sign" Cost_model.bls_share_sign);
  Threshold.share_sign_h sk ~h:(Keys.hash_to_field keys msg)

type combined = { signature : Threshold.signature option; bad_signers : int list; fallback : bool }

let combine ctx keys scheme ~k ~group ~msg shares =
  let combine_cost cached =
    if group then Cost_model.group_combine k
    else if cached then Cost_model.bls_combine_cached k
    else Cost_model.bls_combine k
  in
  if keys.Keys.config.Config.optimistic_combine then begin
    let o = Threshold.combine_verified_h scheme ~h:(Keys.hash_to_field keys msg) shares in
    Engine.charge ctx (Tally.note "combine" (combine_cost o.Threshold.coeffs_cached));
    Engine.charge ctx (Tally.note "combined_verify" Cost_model.bls_verify);
    if o.Threshold.fallback then begin
      Engine.charge ctx
        (Tally.note "share_identify" (Cost_model.bls_identify o.Threshold.fresh_checks));
      (* Recombining the verified survivors needs no second check. *)
      if Option.is_some o.Threshold.signature then
        Engine.charge ctx (Tally.note "combine" (combine_cost o.Threshold.recombine_cached))
    end;
    { signature = o.signature; bad_signers = o.bad_signers; fallback = o.fallback }
  end
  else begin
    Engine.charge ctx (Tally.note "share_batch_verify" (Cost_model.bls_batch_verify k));
    Engine.charge ctx (Tally.note "combine" (combine_cost false));
    { signature = Threshold.combine scheme ~msg shares; bad_signers = []; fallback = false }
  end

let verify ctx keys scheme ~msg s =
  Engine.charge ctx (Tally.note "proof_verify" Cost_model.bls_verify);
  Threshold.verify_h scheme ~h:(Keys.hash_to_field keys msg) s

let verify_cert ctx keys ~h cert =
  let verifies = match cert with Types.Cert_fast _ -> 1 | Types.Cert_slow _ -> 2 in
  Engine.charge ctx (Tally.note "proof_verify" (verifies * Cost_model.bls_verify));
  View_change.verify_cert keys ~h cert

let validate_view_changes ctx keys msgs =
  Engine.charge ctx (Tally.note "proof_verify" (List.length msgs * Cost_model.bls_verify));
  List.filter (View_change.validate_message ~keys) msgs

let validate_new_view ctx keys proofs =
  Engine.charge ctx
    (Tally.note "proof_verify" (List.length proofs * (2 * Cost_model.bls_verify)));
  List.filter (View_change.validate_message ~keys) proofs

(* Requests, hashing and the RSA stand-in *)

let verify_requests ctx keys reqs =
  Engine.charge ctx (Tally.note "rsa_verify" (List.length reqs * Cost_model.rsa_verify));
  List.for_all (Keys.verify_request keys) reqs

let block_hash ctx keys ~seq ~view ~reqs =
  Engine.charge ctx (Tally.note "hash" (Cost_model.sha256 (Types.requests_bytes reqs)));
  Keys.block_hash keys ~seq ~view ~reqs

let hash ctx bytes = Engine.charge ctx (Tally.note "hash" (Cost_model.sha256 bytes))
let rsa_sign ctx = Engine.charge ctx (Tally.note "rsa_sign" Cost_model.rsa_sign)
let rsa_verify ctx = Engine.charge ctx (Tally.note "rsa_verify" Cost_model.rsa_verify)
let mac ctx = Engine.charge ctx (Tally.note "mac" Cost_model.message_auth_check)

let merkle_prove ctx ~leaves =
  Engine.charge ctx (Tally.note "merkle" (Cost_model.merkle_prove leaves))

(* Execution and storage *)

let execute ctx store ~exec_cost ~seq reqs ~ops =
  let own_ops = List.map (fun (r : Types.request) -> r.op) reqs in
  let cost = Auth_store.exec_charge store ~seq ~ops:own_ops (fun () -> exec_cost reqs) in
  Engine.charge ctx (Tally.note "exec" cost);
  Auth_store.execute_block store ~seq ~ops

let persist ctx bytes = Engine.charge ctx (Tally.note "persist" (Cost_model.persist_block bytes))

let wal_append ctx wal record =
  let bytes = Wal.append wal record in
  Engine.charge ctx (Tally.note "wal_append" (Cost_model.wal_append bytes))

let wal_fsync ctx wal ~scale =
  if Wal.sync wal then
    Engine.charge ctx (Tally.note "wal_fsync" (Cost_model.wal_fsync_scaled ~scale))

(* Client side: charged on the client's node, outside the Tally *)

let sign_request ctx keys keypair (request : Types.request) =
  Engine.charge ctx Cost_model.rsa_sign;
  { request with Types.signature = Pki.sign keypair (Keys.request_digest keys request) }

let verify_reply ctx = Engine.charge ctx Cost_model.rsa_verify

let verify_execute_ack ctx keys ~seq ~index ~op ~value ~digest ~pi ~proof =
  Engine.charge ctx Cost_model.bls_verify;
  Engine.charge ctx (Cost_model.merkle_verify 10);
  Threshold.verify_h keys.Keys.pi ~h:(Keys.hash_to_field keys (Types.pi_message ~seq ~digest)) pi
  && Auth_store.verify_op_proof ~digest ~seq ~index ~op ~value ~proof

let verify_query_resp ctx keys ~seq ~key ~value ~digest ~pi ~proof =
  Engine.charge ctx Cost_model.bls_verify;
  Engine.charge ctx (Cost_model.merkle_verify 16);
  Threshold.verify keys.Keys.pi ~msg:(Types.pi_message ~seq ~digest) pi
  && Auth_store.verify_query_proof ~digest ~seq ~key ~value ~proof
