open Sbft_crypto
open Sbft_wire

type request = Sbft_store.Block_store.request = {
  client : int;
  timestamp : int;
  op : string;
  signature : Pki.signature;
}

let request_bytes r =
  let w = Codec.Writer.create () in
  Codec.Writer.u64 w r.client;
  Codec.Writer.u64 w r.timestamp;
  Codec.Writer.str w r.op;
  Codec.Writer.contents w

let request_digest r = Sha256.digest (request_bytes r)

type slow_cert =
  | Slow_committed of { tau : Field.t; tau_tau : Field.t; view : int; reqs : request list }
  | Slow_prepared of { tau : Field.t; view : int; reqs : request list }
  | No_commit

type fast_cert =
  | Fast_committed of { sigma : Field.t; view : int; reqs : request list }
  | Fast_preprepared of { share : Threshold.share; view : int; reqs : request list }
  | No_preprepare

type vc_slot = { slot_seq : int; slow : slow_cert; fast : fast_cert }

type block_cert = Sbft_store.Block_store.cert =
  | Cert_fast of Field.t  (** σ(h) *)
  | Cert_slow of Field.t * Field.t  (** τ(h), τ(τ(h)) *)

type view_change = {
  vc_replica : int;
  vc_view : int;
  vc_ls : int;
  vc_checkpoint : (Field.t * string) option;
  vc_slots : vc_slot list;
}

type msg =
  | Request of request
  | Pre_prepare of { seq : int; view : int; reqs : request list }
  | Sign_share of {
      seq : int;
      view : int;
      sigma_share : Threshold.share;
      tau_share : Threshold.share;
      replica : int;
    }
  | Full_commit_proof of { seq : int; view : int; sigma : Field.t }
  | Prepare of { seq : int; view : int; tau : Field.t }
  | Commit of { seq : int; view : int; share : Threshold.share }
  | Full_commit_proof_slow of { seq : int; view : int; tau : Field.t; tau_tau : Field.t }
  | Sign_state of { seq : int; digest : string; share : Threshold.share }
  | Full_execute_proof of { seq : int; digest : string; pi : Field.t }
  | Execute_ack of {
      view : int;  (** sender's view, lets clients track the primary *)
      seq : int;
      index : int;
      client : int;
      timestamp : int;
      value : string;
      state_digest : string;
      pi : Field.t;
      proof : string;
    }
  | Reply of {
      view : int;
      replica : int;
      client : int;
      timestamp : int;
      seq : int;
      value : string;
    }
  | View_change of view_change
  | New_view of { view : int; proofs : view_change list }
  | Get_block of { seq : int; replica : int }
  | Block_resp of { seq : int; view : int; reqs : request list }
  | Query of { client : int; qid : int; query : string }
      (** Read-only query (§IV): answered by one replica against its
          latest π-certified state, no consensus round. *)
  | Query_resp of {
      client : int;
      qid : int;
      seq : int;  (** height of the certified state *)
      digest : string;
      pi : Field.t;
      value : string;
      proof : string;
    }
  | Get_state of { upto : int; replica : int }
  | State_resp of {
      snapshot : string;
      snap_seq : int;
      pi : Field.t;
      digest : string;
      blocks : Sbft_store.Block_store.entry list;
      table : Sbft_store.Block_store.client_entry list;
          (** Sender's client table as of [snap_seq]: lets the receiver
              resume exactly-once request deduplication (without it, a
              state-transferred replica re-executes retried requests its
              snapshot already covers). *)
    }

let block_hash_with ~digest ~seq ~view ~reqs =
  let w = Codec.Writer.create () in
  Codec.Writer.raw w "sbft-block";
  Codec.Writer.u64 w seq;
  Codec.Writer.u64 w view;
  Codec.Writer.list w (fun r -> Codec.Writer.raw w (digest r)) reqs;
  Sha256.digest (Codec.Writer.contents w)

let block_hash = block_hash_with ~digest:request_digest

let tau2_message tau = "sbft-tau2" ^ Threshold.signature_bytes tau

let pi_message ~seq ~digest =
  let w = Codec.Writer.create () in
  Codec.Writer.raw w "sbft-pi";
  Codec.Writer.u64 w seq;
  Codec.Writer.raw w digest;
  Codec.Writer.contents w

let request_size r = 16 + String.length r.op + Pki.signature_size + 4

let requests_bytes reqs = List.fold_left (fun acc r -> acc + request_size r) 0 reqs

let header = 24 (* type tag, seq, view, sender *)
let sig_size = Threshold.signature_size
let share_size = Threshold.share_size

let cert_reqs_size reqs = requests_bytes reqs

let slow_cert_size = function
  | Slow_committed { reqs; _ } -> sig_size + 8 + cert_reqs_size reqs
  | Slow_prepared { reqs; _ } -> sig_size + 8 + cert_reqs_size reqs
  | No_commit -> 1

let fast_cert_size = function
  | Fast_committed { reqs; _ } -> sig_size + 8 + cert_reqs_size reqs
  | Fast_preprepared { reqs; _ } -> share_size + 8 + cert_reqs_size reqs
  | No_preprepare -> 1

let vc_size vc =
  List.fold_left
    (fun acc s -> acc + 8 + slow_cert_size s.slow + fast_cert_size s.fast)
    (header + 16 + sig_size + 32)
    vc.vc_slots

let size = function
  | Request r -> request_size r
  | Pre_prepare { reqs; _ } -> header + requests_bytes reqs
  | Sign_share _ -> header + (2 * share_size)
  | Full_commit_proof _ -> header + sig_size
  | Prepare _ -> header + sig_size
  | Commit _ -> header + share_size
  | Full_commit_proof_slow _ -> header + (2 * sig_size)
  | Sign_state _ -> header + share_size + 32
  | Full_execute_proof _ -> header + sig_size + 32
  | Execute_ack { value; proof; _ } ->
      header + sig_size + 32 + String.length value + String.length proof
  | Reply { value; _ } -> header + String.length value + Pki.signature_size
  | View_change vc -> vc_size vc
  | New_view { proofs; _ } ->
      List.fold_left (fun acc vc -> acc + vc_size vc) header proofs
  | Get_block _ -> header
  | Block_resp { reqs; _ } -> header + requests_bytes reqs
  | Query { query; _ } -> header + String.length query + Pki.signature_size
  | Query_resp { value; proof; _ } ->
      header + sig_size + 32 + String.length value + String.length proof
  | Get_state _ -> header
  | State_resp { snapshot; blocks; table; _ } ->
      List.fold_left
        (fun acc (e : Sbft_store.Block_store.entry) ->
          let cert_size =
            match e.cert with
            | Cert_fast _ -> sig_size
            | Cert_slow _ -> 2 * sig_size
          in
          acc + 16 + cert_size + requests_bytes e.reqs)
        (header + String.length snapshot + sig_size + 32)
        blocks
      + List.fold_left
          (fun acc (ce : Sbft_store.Block_store.client_entry) ->
            acc + 32 + String.length ce.ce_value)
          0 table

let kind = function
  | Request _ -> "request"
  | Pre_prepare _ -> "pre-prepare"
  | Sign_share _ -> "sign-share"
  | Full_commit_proof _ -> "full-commit-proof"
  | Prepare _ -> "prepare"
  | Commit _ -> "commit"
  | Full_commit_proof_slow _ -> "full-commit-proof-slow"
  | Sign_state _ -> "sign-state"
  | Full_execute_proof _ -> "full-execute-proof"
  | Execute_ack _ -> "execute-ack"
  | Reply _ -> "reply"
  | View_change _ -> "view-change"
  | New_view _ -> "new-view"
  | Get_block _ -> "get-block"
  | Block_resp _ -> "block-resp"
  | Query _ -> "query"
  | Query_resp _ -> "query-resp"
  | Get_state _ -> "get-state"
  | State_resp _ -> "state-resp"
