open Sbft_crypto

(* Every replica hashes and checks the same requests, blocks and
   collector groups, so the cluster memoizes them, keyed by value.  A
   memo is cleared when it outgrows [points_cap], and every memo is
   cleared at each new stable checkpoint: each value is a pure function
   of its key, so clearing changes no result. *)
let points_cap = 4096

module Memo (K : Hashtbl.HashedType) = struct
  include Hashtbl.Make (K)

  let find_or tbl key compute =
    match find_opt tbl key with
    | Some v -> v
    | None ->
        if length tbl >= points_cap then reset tbl;
        let v = compute () in
        replace tbl key v;
        v
end

(* A request by the fields its digest reads (client, timestamp, op),
   hashed on (client, timestamp) only: on a hit the op string is the one
   every replica shares, so [String.equal] returns at once and no op
   payload is hashed.  The client's digest of its unsigned request is
   thus a hit for every replica's check of the signed one. *)
module Unsigned = struct
  type t = Types.request

  let hash (r : t) = (r.client * 1_000_003) lxor r.timestamp

  let equal (a : t) (b : t) =
    Int.equal a.client b.client && Int.equal a.timestamp b.timestamp
    && String.equal a.op b.op
end

(* A request by all four fields, the signature included. *)
module Request = struct
  include Unsigned

  let equal (a : t) (b : t) = Unsigned.equal a b && String.equal a.signature b.signature
end

module Digest_memo = Memo (Unsigned)
module Req_memo = Memo (Request)

module Block_memo = Memo (struct
  type t = int * int * Types.request list

  let hash (seq, view, _) = (seq * 1_000_003) lxor view

  let equal (s, v, reqs) (s', v', reqs') =
    Int.equal s s' && Int.equal v v' && List.equal Request.equal reqs reqs'
end)

(* A message to its field point. *)
module Point_memo = Memo (struct
  type t = string

  let hash = String.hash
  let equal = String.equal
end)

(* (view, seq, salt): [n] and the group size are fixed per cluster. *)
module Group_memo = Memo (struct
  type t = int * int * int

  let hash (view, seq, salt) = (((view * 1_000_003) lxor seq) * 4) + salt

  let equal (v, s, k) (v', s', k') = Int.equal v v' && Int.equal s s' && Int.equal k k'
end)

type memos = {
  points : Field.t Point_memo.t;
  digests : string Digest_memo.t;
  verified : bool Req_memo.t;
  blocks : string Block_memo.t;
  groups : int list Group_memo.t;
  mutable cleared_at : int;  (* the checkpoint of the last clear *)
}

type t = {
  config : Config.t;
  sigma : Threshold.t;
  tau : Threshold.t;
  pi : Threshold.t;
  replica_pks : Pki.public_key array;
  client_pks : Pki.public_key array;
  memos : memos;
}

type replica_keys = {
  replica_id : int;
  sigma_sk : Threshold.signing_key;
  tau_sk : Threshold.signing_key;
  pi_sk : Threshold.signing_key;
  pki_sk : Pki.keypair;
}

let setup rng ~config ~num_clients =
  let n = Config.n config in
  let sigma, sigma_keys = Threshold.setup rng ~n ~k:(Config.sigma_threshold config) in
  let tau, tau_keys = Threshold.setup rng ~n ~k:(Config.tau_threshold config) in
  let pi, pi_keys = Threshold.setup rng ~n ~k:(Config.pi_threshold config) in
  let replica_kps = Array.init n (fun id -> Pki.generate rng ~id) in
  let client_kps = Array.init num_clients (fun i -> Pki.generate rng ~id:(n + i)) in
  let public =
    {
      config;
      sigma;
      tau;
      pi;
      replica_pks = Array.map Pki.public_key replica_kps;
      client_pks = Array.map Pki.public_key client_kps;
      memos =
        {
          points = Point_memo.create 256;
          digests = Digest_memo.create 256;
          verified = Req_memo.create 256;
          blocks = Block_memo.create 256;
          groups = Group_memo.create 256;
          cleared_at = 0;
        };
    }
  in
  let replica_keys =
    Array.init n (fun i ->
        {
          replica_id = i;
          sigma_sk = sigma_keys.(i);
          tau_sk = tau_keys.(i);
          pi_sk = pi_keys.(i);
          pki_sk = replica_kps.(i);
        })
  in
  (public, replica_keys, client_kps)

(* Every replica signs, combines and checks the same few messages per
   block (h, τ(h)'s message, the π message), so the cluster hashes each
   to its field point once. *)
let hash_to_field t msg =
  Point_memo.find_or t.memos.points msg (fun () -> Threshold.hash_to_field msg)

let points_held t = Point_memo.length t.memos.points

let clear_at_checkpoint t ~seq =
  let m = t.memos in
  if seq > m.cleared_at then begin
    m.cleared_at <- seq;
    Point_memo.reset m.points;
    Digest_memo.reset m.digests;
    Req_memo.reset m.verified;
    Block_memo.reset m.blocks;
    Group_memo.reset m.groups
  end

let request_digest t r = Digest_memo.find_or t.memos.digests r (fun () -> Types.request_digest r)

let block_hash t ~seq ~view ~reqs =
  Block_memo.find_or t.memos.blocks (seq, view, reqs) (fun () ->
      Types.block_hash_with ~digest:(request_digest t) ~seq ~view ~reqs)

let collector_group t ~view ~seq ~salt pick =
  Group_memo.find_or t.memos.groups (view, seq, salt) pick

let client_pk t cid = t.client_pks.(cid - Config.n t.config)

(* The verdict keys on the signature too: the same fields under a
   forged signature are checked afresh. *)
let verify_request t (r : Types.request) =
  Req_memo.find_or t.memos.verified r (fun () ->
      let cid = r.client in
      let n = Config.n t.config in
      cid >= n
      && cid < n + Array.length t.client_pks
      && Pki.verify (client_pk t cid) (request_digest t r) r.signature)
