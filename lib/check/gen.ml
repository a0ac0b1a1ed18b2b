(* Seeded random schedule generation.

   Generated schedules respect the fault model the safety proofs assume
   (at most [f] replicas ever turn Byzantine) so that a failing oracle
   is always a genuine protocol bug, never an over-budget adversary.
   Crashes, partitions, drops, and delays are unbudgeted: they can stall
   progress but must never break safety.

   Eventually-synchronous schedules additionally guarantee the paper's
   liveness precondition: at GST every injected fault is undone (heal,
   drop 0, reconnect, recover, Byzantine replicas fall silent...
   actually flip honest) and a quiet period follows, so the
   liveness-after-GST oracle applies. *)

open Sbft_sim

type profile = {
  quick : bool;  (** smaller clusters, shorter horizons *)
  adversarial : bool;
      (** attach a random adaptive-adversary header (policy, pool ≤ f,
          budget, observation window) to every schedule *)
}

let default_profile = { quick = false; adversarial = false }

(* Weighted fault-class choice.  Gray failures (slow CPU, flapping
   links, degraded fsync) and rollback attacks are safety-neutral under
   the defenses (WAL + conservative rejoin), so they join the
   unbudgeted classes. *)
type klass =
  | K_crash | K_amnesia | K_recover | K_partition | K_heal | K_drop | K_delay
  | K_isolate | K_reconnect | K_byz | K_slow | K_flap | K_fsync | K_rollback

let classes =
  [|
    (K_crash, 15); (K_amnesia, 8); (K_recover, 10); (K_partition, 12); (K_heal, 8);
    (K_drop, 10); (K_delay, 12); (K_isolate, 10); (K_reconnect, 7); (K_byz, 16);
    (K_slow, 8); (K_flap, 8); (K_fsync, 6); (K_rollback, 7);
  |]

let pick_class rng =
  let total = Array.fold_left (fun acc (_, w) -> acc + w) 0 classes in
  let r = Rng.int rng total in
  let acc = ref 0 in
  let chosen = ref K_crash in
  (try
     Array.iter
       (fun (k, w) ->
         acc := !acc + w;
         if r < !acc then begin
           chosen := k;
           raise Exit
         end)
       classes
   with Exit -> ());
  !chosen

let random_partition rng ~num_replicas =
  let nodes = Array.init num_replicas (fun i -> i) in
  Rng.shuffle rng nodes;
  let cut = 1 + Rng.int rng (num_replicas - 1) in
  let a = Array.to_list (Array.sub nodes 0 cut) in
  let b = Array.to_list (Array.sub nodes cut (num_replicas - cut)) in
  [ List.sort Int.compare a; List.sort Int.compare b ]

let byz_flavours =
  Sbft_core.Replica.[| Equivocating_primary; Silent; Corrupt_shares; Wrong_exec_digest; Stale_view_change |]

(* Build the fault prefix: [count] weighted actions at sorted random
   times within [0, window_ms).  [byz_pool] are the replicas allowed to
   turn Byzantine (|byz_pool| <= f). *)
let fault_steps rng ~num_replicas ~byz_pool ~count ~window_ms =
  let crashed = Hashtbl.create 8 in
  let isolated = Hashtbl.create 8 in
  let steps = ref [] in
  let extra = ref [] in
  for _ = 1 to count do
    let at_ms = 100 + Rng.int rng (max 1 (window_ms - 100)) in
    let replica () = Rng.int rng num_replicas in
    let action =
      match pick_class rng with
      | K_crash ->
          let node = replica () in
          Hashtbl.replace crashed node ();
          Some (Schedule.Crash node)
      | K_amnesia ->
          (* Same crashed-pool as K_crash, so K_recover and the GST heal
             cover amnesia crashes too (Recover routes through the
             rebuild-from-durable path automatically). *)
          let node = replica () in
          Hashtbl.replace crashed node ();
          Some (Schedule.Crash_amnesia node)
      | K_recover -> (
          match Sbft_sim.Det.sorted_keys ~compare:Int.compare crashed with
          | [] -> None
          | nodes ->
              let node = Rng.pick rng (Array.of_list nodes) in
              Hashtbl.remove crashed node;
              Some (Schedule.Recover node))
      | K_partition -> Some (Schedule.Partition (random_partition rng ~num_replicas))
      | K_heal -> Some Schedule.Heal
      | K_drop -> Some (Schedule.Set_drop (float_of_int (1 + Rng.int rng 20) /. 100.))
      | K_delay ->
          let src = replica () and dst = replica () in
          if Int.equal src dst then None
          else Some (Schedule.Delay_link { src; dst; delay_ms = 50 + Rng.int rng 450 })
      | K_isolate ->
          let node = replica () in
          Hashtbl.replace isolated node ();
          Some (Schedule.Isolate node)
      | K_reconnect -> (
          match Sbft_sim.Det.sorted_keys ~compare:Int.compare isolated with
          | [] -> None
          | nodes ->
              let node = Rng.pick rng (Array.of_list nodes) in
              Hashtbl.remove isolated node;
              Some (Schedule.Reconnect node))
      | K_byz -> (
          match byz_pool with
          | [] -> None
          | pool -> Some (Schedule.Byzantine (Rng.pick rng (Array.of_list pool), Rng.pick rng byz_flavours)))
      | K_slow ->
          Some (Schedule.Slow (replica (), float_of_int (2 + Rng.int rng 7)))
      | K_flap ->
          let src = replica () and dst = replica () in
          if Int.equal src dst then None
          else
            let period_ms = 100 + Rng.int rng 400 in
            let up_ms = 20 + Rng.int rng (period_ms - 20) in
            Some (Schedule.Flap { src; dst; period_ms; up_ms })
      | K_fsync ->
          Some (Schedule.Fsync_delay (replica (), float_of_int (5 + Rng.int rng 45)))
      | K_rollback ->
          (* Composite: crash-amnesia now, tamper the disk shortly
             after, rejoin later.  The tamper and recover ride as extra
             steps so the trio survives independent shrinking (a lone
             rollback without amnesia is a no-op, not an error). *)
          let node = replica () in
          Hashtbl.remove crashed node;
          let before = Rng.int rng 16 in
          extra :=
            { Schedule.at_ms = at_ms + 200; action = Schedule.Rollback (node, before) }
            :: { Schedule.at_ms = at_ms + 500 + Rng.int rng 1_000;
                 action = Schedule.Recover node }
            :: !extra;
          Some (Schedule.Crash_amnesia node)
    in
    match action with
    | Some action -> steps := { Schedule.at_ms; action } :: !steps
    | None -> ()
  done;
  List.rev_append !steps (List.rev !extra)

(* Undo every fault at GST so the quiet period is genuinely quiet —
   including the gray failures: slowed CPUs and degraded disks return
   to full speed, flapping links stabilize. *)
let heal_steps ~at_ms ~byz_pool steps =
  let crashed = Hashtbl.create 8 in
  let isolated = Hashtbl.create 8 in
  let slowed = Hashtbl.create 8 in
  let flapped = Hashtbl.create 8 in
  let degraded = Hashtbl.create 8 in
  List.iter
    (fun (s : Schedule.step) ->
      match s.Schedule.action with
      | Schedule.Crash n | Schedule.Crash_amnesia n -> Hashtbl.replace crashed n ()
      | Schedule.Recover n -> Hashtbl.remove crashed n
      | Schedule.Isolate n -> Hashtbl.replace isolated n ()
      | Schedule.Reconnect n -> Hashtbl.remove isolated n
      | Schedule.Slow (n, scale) ->
          if scale > 1.0 then Hashtbl.replace slowed n ()
          else Hashtbl.remove slowed n
      | Schedule.Flap { src; dst; _ } ->
          Hashtbl.replace flapped src ();
          Hashtbl.replace flapped dst ()
      | Schedule.Unflap n -> Hashtbl.remove flapped n
      | Schedule.Fsync_delay (n, scale) ->
          if scale > 1.0 then Hashtbl.replace degraded n ()
          else Hashtbl.remove degraded n
      | _ -> ())
    (List.stable_sort
       (fun (a : Schedule.step) b -> Int.compare a.Schedule.at_ms b.Schedule.at_ms)
       steps);
  let mk action = { Schedule.at_ms; action } in
  let keys tbl = Sbft_sim.Det.sorted_keys ~compare:Int.compare tbl in
  [ mk Schedule.Heal; mk (Schedule.Set_drop 0.0) ]
  @ List.map (fun n -> mk (Schedule.Reconnect n)) (keys isolated)
  @ List.map (fun n -> mk (Schedule.Recover n)) (keys crashed)
  @ List.map (fun n -> mk (Schedule.Slow (n, 1.0))) (keys slowed)
  @ List.map (fun n -> mk (Schedule.Unflap n)) (keys flapped)
  @ List.map (fun n -> mk (Schedule.Fsync_delay (n, 1.0))) (keys degraded)
  @ List.map (fun n -> mk (Schedule.Byzantine (n, Sbft_core.Replica.Honest))) byz_pool

let generate ?(profile = default_profile) ~seed index =
  let rng = Rng.create (Int64.add seed (Int64.of_int (index * 2654435761))) in
  let f, c =
    if profile.quick then (1, 0)
    else Rng.pick rng [| (1, 0); (1, 0); (1, 1); (2, 0) |]
  in
  let num_replicas = Sbft_core.Config.n (Sbft_core.Config.sbft ~f ~c) in
  let clients = 1 + Rng.int rng (if profile.quick then 2 else 3) in
  let requests = 3 + Rng.int rng (if profile.quick then 3 else 6) in
  let eventually_synchronous = Rng.bool rng 0.65 in
  let fault_window = if profile.quick then 8_000 else 15_000 in
  let quiet = 40_000 + Rng.int rng 20_000 in
  let count = 1 + Rng.int rng (if profile.quick then 4 else 7) in
  (* Up to f replicas may misbehave; bias away from the initial primary
     half the time so fault-free views also get explored. *)
  let byz_pool =
    let max_byz = Rng.int rng (f + 1) in
    let candidates = Array.init num_replicas (fun i -> i) in
    Rng.shuffle rng candidates;
    Array.to_list (Array.sub candidates 0 max_byz) |> List.sort Int.compare
  in
  let prefix = fault_steps rng ~num_replicas ~byz_pool ~count ~window_ms:fault_window in
  (* Adaptive adversary rider: colluders come from the byz pool (so the
     ≤ f budget and the GST honest-flip cover them), and the
     observation window closes before GST so Expect_pass schedules
     keep their quiet period. *)
  let adversary =
    if (not profile.adversarial) || byz_pool = [] then None
    else
      let policies =
        [|
          Schedule.Equivocating_collector;
          Schedule.Withhold_until_threshold;
          Schedule.View_change_storm;
          Schedule.Checkpoint_split;
        |]
      in
      let from_ms = 200 + Rng.int rng 800 in
      Some
        {
          Schedule.policy = Rng.pick rng policies;
          pool = byz_pool;
          budget = 2 + Rng.int rng 7;
          every_ms = 150 + Rng.int rng 350;
          from_ms;
          until_ms = max from_ms (fault_window - 500);
        }
  in
  let gst_ms, steps, horizon_ms, expect =
    if eventually_synchronous then
      let gst = fault_window + 1_000 in
      ( Some gst,
        prefix @ heal_steps ~at_ms:gst ~byz_pool prefix,
        gst + quiet,
        Schedule.Expect_pass )
    else (None, prefix, fault_window + (if profile.quick then 10_000 else 20_000), Schedule.Expect_any)
  in
  {
    Schedule.name = Printf.sprintf "gen-%Ld-%d" seed index;
    seed = Int64.add (Int64.mul seed 1_000_003L) (Int64.of_int index);
    f;
    c;
    clients;
    requests;
    win = (if Rng.bool rng 0.3 then 4 else 8);
    topology = (if Rng.bool rng 0.8 then `Lan else `Continent);
    acks = Rng.bool rng 0.75;
    (* Always durable: amnesia crashes without a WAL can legitimately
       lose promises, so a generated Expect_pass schedule would flake.
       Rejoin stays conservative for the same reason — eager rejoin
       after a generated rollback can legitimately violate safety;
       only hand-written Expect_fail twins disable the defense. *)
    wal = true;
    rejoin_conservative = true;
    mutation = None;
    adversary;
    gst_ms;
    horizon_ms;
    expect;
    steps;
  }

(* The mutation check (§fuzzer design): weak-sigma schedules need an
   equivocating primary and a cluster where sigma drops below the honest
   intersection bound — f=1, c=1 (n=6) gives sigma 2f+c = 3 = n/2, so
   two disjoint halves each reach a certificate. *)
let generate_mutation ~seed index =
  let rng = Rng.create (Int64.add seed (Int64.of_int ((index * 40503) + 7))) in
  let base = generate ~seed index in
  let extra = fault_steps rng ~num_replicas:6 ~byz_pool:[ 0 ] ~count:(Rng.int rng 4) ~window_ms:10_000 in
  {
    base with
    Schedule.name = Printf.sprintf "mut-%Ld-%d" seed index;
    f = 1;
    c = 1;
    clients = 2;
    requests = 4;
    mutation = Some Sbft_core.Config.Weak_sigma_quorum;
    gst_ms = None;
    horizon_ms = 20_000;
    expect = Schedule.Expect_any;
    steps =
      { Schedule.at_ms = 200; action = Schedule.Byzantine (0, Sbft_core.Replica.Equivocating_primary) }
      :: extra;
  }
