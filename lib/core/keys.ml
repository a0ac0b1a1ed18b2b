open Sbft_crypto

(* Every replica authenticates every request; the request objects are
   physically shared across the simulated nodes, so the (deterministic)
   verification outcome is memoized by physical identity, per cluster:
   another cluster's keys give another answer. *)
module Req_memo = Ephemeron.K1.Make (struct
  type t = Types.request

  let equal = ( == )
  let hash (r : Types.request) = (r.client * 1_000_003) lxor r.timestamp
end)

type verify_memo = bool Req_memo.t

type t = {
  config : Config.t;
  sigma : Threshold.t;
  tau : Threshold.t;
  pi : Threshold.t;
  group : Group_sig.t;
  replica_pks : Pki.public_key array;
  client_pks : Pki.public_key array;
  points : (string, Field.t) Hashtbl.t;
  verified : verify_memo;
}

type replica_keys = {
  replica_id : int;
  sigma_sk : Threshold.signing_key;
  tau_sk : Threshold.signing_key;
  pi_sk : Threshold.signing_key;
  group_sk : Group_sig.signing_key;
  pki_sk : Pki.keypair;
}

let setup rng ~config ~num_clients =
  let n = Config.n config in
  let sigma, sigma_keys = Threshold.setup rng ~n ~k:(Config.sigma_threshold config) in
  let tau, tau_keys = Threshold.setup rng ~n ~k:(Config.tau_threshold config) in
  let pi, pi_keys = Threshold.setup rng ~n ~k:(Config.pi_threshold config) in
  let group, group_keys = Group_sig.setup rng ~n in
  let replica_kps = Array.init n (fun id -> Pki.generate rng ~id) in
  let client_kps = Array.init num_clients (fun i -> Pki.generate rng ~id:(n + i)) in
  let public =
    {
      config;
      sigma;
      tau;
      pi;
      group;
      replica_pks = Array.map Pki.public_key replica_kps;
      client_pks = Array.map Pki.public_key client_kps;
      points = Hashtbl.create 256;
      verified = Req_memo.create 256;
    }
  in
  let replica_keys =
    Array.init n (fun i ->
        {
          replica_id = i;
          sigma_sk = sigma_keys.(i);
          tau_sk = tau_keys.(i);
          pi_sk = pi_keys.(i);
          group_sk = group_keys.(i);
          pki_sk = replica_kps.(i);
        })
  in
  (public, replica_keys, client_kps)

(* Every replica signs, combines and checks the same few messages per
   block (h, τ(h)'s message, the π message), so the cluster hashes each
   to its field point once.  The point is a pure function of the
   message, and the table is cleared when it outgrows [points_cap]. *)
let points_cap = 4096

let hash_to_field t msg =
  match Hashtbl.find_opt t.points msg with
  | Some h -> h
  | None ->
      if Hashtbl.length t.points >= points_cap then Hashtbl.reset t.points;
      let h = Threshold.hash_to_field msg in
      Hashtbl.replace t.points msg h;
      h

let client_pk t cid = t.client_pks.(cid - Config.n t.config)

let verify_request t (r : Types.request) =
  match Req_memo.find_opt t.verified r with
  | Some ok -> ok
  | None ->
      let cid = r.client in
      let n = Config.n t.config in
      let ok =
        cid >= n
        && cid < n + Array.length t.client_pks
        && Pki.verify (client_pk t cid) (Types.request_digest r) r.signature
      in
      Req_memo.replace t.verified r ok;
      ok
