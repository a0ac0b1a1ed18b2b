open Sbft_sim

type mutation = Weak_sigma_quorum | Weak_tau_quorum | Weak_vc_quorum

type t = {
  f : int;
  c : int;
  win : int;
  fast_path : bool;
  execution_acks : bool;
  fast_path_timeout : Engine.time;
  collector_stagger : Engine.time;
  use_group_sig : bool;
  optimistic_combine : bool;
  durable_wal : bool;
  conservative_rejoin : bool;
  mutation : mutation option;
}

let max_batch = 64
let batch_timeout = Engine.ms 5
let view_change_timeout = Engine.sec 2
let client_retry_timeout = Engine.sec 4
let state_transfer_retry = Engine.ms 300

let n t = (3 * t.f) + (2 * t.c) + 1

let sigma_threshold t =
  match t.mutation with
  | Some Weak_sigma_quorum -> (2 * t.f) + t.c
  | _ -> (3 * t.f) + t.c + 1

let tau_threshold t =
  match t.mutation with
  | Some Weak_tau_quorum -> (2 * t.f) + t.c
  | _ -> (2 * t.f) + t.c + 1

let pi_threshold t = t.f + 1

let quorum_vc t =
  match t.mutation with
  | Some Weak_vc_quorum -> (2 * t.f) + (2 * t.c)
  | _ -> (2 * t.f) + (2 * t.c) + 1
let quorum_bft t = (2 * t.f) + 1
let active_window t = max 1 (t.win / 4)
let checkpoint_interval t = max 1 (t.win / 2)

let sanitized t =
  match t.mutation with
  | Some Weak_sigma_quorum -> false
  | None | Some (Weak_tau_quorum | Weak_vc_quorum) -> true

let sbft ~f ~c =
  {
    f;
    c;
    win = 256;
    fast_path = true;
    execution_acks = true;
    fast_path_timeout = Engine.ms 150;
    collector_stagger = Engine.ms 50;
    use_group_sig = false;
    optimistic_combine = true;
    durable_wal = true;
    conservative_rejoin = true;
    mutation = None;
  }

let linear_pbft ~f = { (sbft ~f ~c:0) with fast_path = false; execution_acks = false }
let linear_pbft_fast ~f = { (sbft ~f ~c:0) with execution_acks = false }

let validate t =
  if t.f < 0 then Error "f must be non-negative"
  else if t.c < 0 then Error "c must be non-negative"
  else if t.win < 4 then Error "win must be at least 4"
  else if n t < 4 then Error "need at least 4 replicas"
  else Ok ()
