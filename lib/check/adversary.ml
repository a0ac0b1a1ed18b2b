(* Adaptive Byzantine adversary for the schedule fuzzer.

   A static schedule commits to its faults before the run; an adaptive
   policy watches the cluster and reacts — equivocate exactly when a
   split can stick, fall silent one share short of a threshold, amplify
   a view change the moment one starts.  The loop stays deterministic
   and replayable because everything that feeds a decision is fixed by
   the schedule: observation times (the [every_ms] tick), the decision
   rules below, and the restricted observation surface.

   What the attacker may see is deliberately limited to the [obs_*]
   accessors ({!Sbft_core.Replica}): view/progress counters and share
   tallies — state a real network adversary colluding with f replicas
   could learn from traffic and its own members.  No key material, no
   honest replicas' unsent buffers.  The R6 taint lint enforces the
   complement: protocol code may never consume [obs_*] results.

   Policies act only through schedule actions (Byzantine flavour flips,
   node isolation) that the runner applies like static steps, each
   costing one unit of the schedule's [budget].  Shrinking therefore
   has two extra axes: a smaller budget (fewer reactions) and a shorter
   [from/until] horizon (less observation) — see {!Shrink}. *)

open Sbft_core
open Sbft_sim

type protocol_view = {
  now_ms : int;
  n : int;
  primary : int;  (** primary of the highest view any replica occupies *)
  views : int array;
  executed : int array;
  stable : int array;
  frontier : int array;
  in_view_change : bool array;
  crashed : bool array;
  sigma_threshold : int;
  checkpoint_interval : int;
  shares_at : int -> int * int * int;
      (** σ/τ/commit share tallies for a slot, as seen by the pool's
          preferred colluder *)
}

type t = {
  spec : Schedule.adversary;
  mutable budget_left : int;
  flavor : (int, Replica.byzantine) Hashtbl.t;  (* current flip per pool id *)
  mutable isolated : int list;
}

let create (spec : Schedule.adversary) =
  {
    spec;
    budget_left = spec.Schedule.budget;
    flavor = Hashtbl.create 4;
    isolated = [];
  }

let view_of (cluster : Cluster.t) ~pool ~now_ms =
  let n = Cluster.num_replicas cluster in
  let r i = cluster.Cluster.replicas.(i) in
  let views = Array.init n (fun i -> Replica.obs_view (r i)) in
  let max_view = Array.fold_left max 0 views in
  let config = cluster.Cluster.config in
  let observer = match pool with p :: _ when p < n -> p | _ -> 0 in
  {
    now_ms;
    n;
    primary = max_view mod n;
    views;
    executed = Array.init n (fun i -> Replica.obs_last_executed (r i));
    stable = Array.init n (fun i -> Replica.obs_last_stable (r i));
    frontier = Array.init n (fun i -> Replica.obs_frontier (r i));
    in_view_change = Array.init n (fun i -> Replica.obs_in_view_change (r i));
    crashed = Array.init n (fun i -> Engine.is_crashed cluster.Cluster.engine i);
    sigma_threshold = Config.sigma_threshold config;
    checkpoint_interval = Config.checkpoint_interval config;
    shares_at = (fun seq -> Replica.obs_slot_shares (r observer) seq);
  }

(* One uniform accounting rule: every emitted action costs one budget
   unit, and a flip to a flavour the replica already has is not
   emitted.  Policies below compute their *desired* pool state; [want]
   turns the delta into affordable actions. *)
let want t ~node flavor acc =
  let current =
    Option.value (Hashtbl.find_opt t.flavor node) ~default:Replica.Honest
  in
  if current = flavor || t.budget_left <= 0 then acc
  else begin
    t.budget_left <- t.budget_left - 1;
    Hashtbl.replace t.flavor node flavor;
    Schedule.Byzantine (node, flavor) :: acc
  end

let want_isolate t ~node acc =
  if List.mem node t.isolated || t.budget_left <= 0 then acc
  else begin
    t.budget_left <- t.budget_left - 1;
    t.isolated <- node :: t.isolated;
    Schedule.Isolate node :: acc
  end

let want_reconnect t ~node acc =
  if not (List.mem node t.isolated) || t.budget_left <= 0 then acc
  else begin
    t.budget_left <- t.budget_left - 1;
    t.isolated <- List.filter (fun x -> x <> node) t.isolated;
    Schedule.Reconnect node :: acc
  end

let pool_members t v =
  List.filter (fun p -> p >= 0 && p < v.n) t.spec.Schedule.pool

(* Equivocating collector: the colluding replica equivocates exactly
   while it is the primary and client traffic is in flight (an
   equivocation with nothing proposed splits nothing), and returns to
   honest cover otherwise. *)
let equivocating_collector t v =
  List.fold_left
    (fun acc p ->
      let in_flight = v.frontier.(p) > v.executed.(p) in
      if p = v.primary && in_flight && not v.in_view_change.(p) then
        want t ~node:p Replica.Equivocating_primary acc
      else want t ~node:p Replica.Honest acc)
    [] (pool_members t v)

(* Withhold until threshold: participate normally (building up trust
   and letting the slot accumulate honest shares) until the pool's own
   shares are the margin that would complete the σ certificate, then
   fall silent — maximal damage per withheld share.  Re-engage when the
   slot commits anyway (the frontier moves past it). *)
let withhold_until_threshold t v =
  let pool = pool_members t v in
  let k = List.length pool in
  let target =
    List.fold_left (fun acc p -> max acc v.frontier.(p)) 0 pool
  in
  let sigma, _tau, _commit = v.shares_at target in
  let executed = List.fold_left (fun acc p -> max acc v.executed.(p)) 0 pool in
  let pivotal = target > executed && sigma + k >= v.sigma_threshold in
  List.fold_left
    (fun acc p ->
      if pivotal then want t ~node:p Replica.Silent acc
      else want t ~node:p Replica.Honest acc)
    [] pool

(* View-change storm: the moment any replica starts a view change, the
   pool amplifies it with stale/partial view-change spam, prolonging
   the succession crisis; quiet otherwise. *)
let view_change_storm t v =
  let storming = Array.exists (fun b -> b) v.in_view_change in
  List.fold_left
    (fun acc p ->
      if storming then want t ~node:p Replica.Stale_view_change acc
      else want t ~node:p Replica.Honest acc)
    [] (pool_members t v)

(* Checkpoint split: as execution approaches a checkpoint boundary,
   isolate the slowest honest replica so its checkpoint certification
   lags the quorum's; reconnect once the quorum's stable point has
   crossed the boundary, and repeat at the next one. *)
let checkpoint_split t v =
  let pool = pool_members t v in
  let is_pool p = List.mem p pool in
  let max_exec = Array.fold_left max 0 v.executed in
  let max_stable = Array.fold_left max 0 v.stable in
  let interval = max 1 v.checkpoint_interval in
  let next_boundary = ((max_stable / interval) + 1) * interval in
  let approaching = max_exec >= next_boundary - 1 in
  let straggler =
    let best = ref None in
    Array.iteri
      (fun i e ->
        if (not (is_pool i)) && not v.crashed.(i) then
          match !best with
          | Some (_, e') when e' <= e -> ()
          | _ -> best := Some (i, e))
      v.executed;
    Option.map fst !best
  in
  match straggler with
  | Some node when approaching -> want_isolate t ~node []
  | _ ->
      (* Boundary crossed (or nothing to split): release everyone. *)
      List.fold_left (fun acc node -> want_reconnect t ~node acc) [] t.isolated

let observe t (v : protocol_view) =
  match t.spec.Schedule.policy with
  | Schedule.Equivocating_collector -> equivocating_collector t v
  | Schedule.Withhold_until_threshold -> withhold_until_threshold t v
  | Schedule.View_change_storm -> view_change_storm t v
  | Schedule.Checkpoint_split -> checkpoint_split t v

(* End of the observation window: undo connectivity damage and return
   the pool to honest cover.  Free of budget — cleanup must happen even
   on an exhausted adversary, or an Expect_pass schedule could be
   failed by leftover isolation rather than by the protocol. *)
let cleanup t =
  let reconnects = List.map (fun node -> Schedule.Reconnect node) t.isolated in
  let flips =
    Hashtbl.fold
      (fun node flavor acc ->
        if flavor = Replica.Honest then acc
        else Schedule.Byzantine (node, Replica.Honest) :: acc)
      t.flavor []
    |> List.sort compare
  in
  t.isolated <- [];
  Hashtbl.reset t.flavor;
  reconnects @ flips
