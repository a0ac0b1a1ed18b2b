open Sbft_core

type action =
  | Crash of int
  | Crash_amnesia of int
  | Recover of int
  | Partition of int list list
  | Heal
  | Set_drop of float
  | Delay_link of { src : int; dst : int; delay_ms : int }
  | Isolate of int
  | Reconnect of int
  | Byzantine of int * Replica.byzantine
  | Slow of int * float
  | Flap of { src : int; dst : int; period_ms : int; up_ms : int }
  | Unflap of int
  | Fsync_delay of int * float
  | Rollback of int * int

type step = { at_ms : int; action : action }

type expect = Expect_pass | Expect_fail of string | Expect_any

type policy =
  | Equivocating_collector
  | Withhold_until_threshold
  | View_change_storm
  | Checkpoint_split

type adversary = {
  policy : policy;
  pool : int list;
  budget : int;
  every_ms : int;
  from_ms : int;
  until_ms : int;
}

type t = {
  name : string;
  seed : int64;
  f : int;
  c : int;
  clients : int;
  requests : int;
  win : int;
  topology : Sbft_sim.Topology.kind;
  acks : bool;
  wal : bool;
  rejoin_conservative : bool;
  mutation : Config.mutation option;
  adversary : adversary option;
  gst_ms : int option;
  horizon_ms : int;
  expect : expect;
  steps : step list;
}

let num_replicas t = Config.n (Config.sbft ~f:t.f ~c:t.c)
let num_nodes t = num_replicas t + t.clients

let byz_to_string : Replica.byzantine -> string = function
  | Equivocating_primary -> "equivocate"
  | Silent -> "silent"
  | Corrupt_shares -> "corrupt-shares"
  | Wrong_exec_digest -> "wrong-exec-digest"
  | Stale_view_change -> "stale-vc"
  | Honest -> "honest"

let byz_of_string : string -> Replica.byzantine option = function
  | "equivocate" -> Some Equivocating_primary
  | "silent" -> Some Silent
  | "corrupt-shares" -> Some Corrupt_shares
  | "wrong-exec-digest" -> Some Wrong_exec_digest
  | "stale-vc" -> Some Stale_view_change
  | "honest" -> Some Honest
  | _ -> None

let policy_to_string = function
  | Equivocating_collector -> "equivocating-collector"
  | Withhold_until_threshold -> "withhold-until-threshold"
  | View_change_storm -> "vc-storm"
  | Checkpoint_split -> "checkpoint-split"

let policy_of_string = function
  | "equivocating-collector" -> Some Equivocating_collector
  | "withhold-until-threshold" -> Some Withhold_until_threshold
  | "vc-storm" -> Some View_change_storm
  | "checkpoint-split" -> Some Checkpoint_split
  | _ -> None

let groups_to_string groups =
  String.concat "|"
    (List.map (fun g -> String.concat "," (List.map string_of_int g)) groups)

let action_to_string = function
  | Crash n -> Printf.sprintf "crash %d" n
  | Crash_amnesia n -> Printf.sprintf "crash-amnesia %d" n
  | Recover n -> Printf.sprintf "recover %d" n
  | Partition groups -> Printf.sprintf "partition %s" (groups_to_string groups)
  | Heal -> "heal"
  | Set_drop p -> Printf.sprintf "drop %g" p
  | Delay_link { src; dst; delay_ms } -> Printf.sprintf "delay %d %d %d" src dst delay_ms
  | Isolate n -> Printf.sprintf "isolate %d" n
  | Reconnect n -> Printf.sprintf "reconnect %d" n
  | Byzantine (n, b) -> Printf.sprintf "byz %d %s" n (byz_to_string b)
  | Slow (n, scale) -> Printf.sprintf "slow %d %g" n scale
  | Flap { src; dst; period_ms; up_ms } ->
      Printf.sprintf "flap %d %d %d %d" src dst period_ms up_ms
  | Unflap n -> Printf.sprintf "unflap %d" n
  | Fsync_delay (n, scale) -> Printf.sprintf "fsync-delay %d %g" n scale
  | Rollback (n, before) -> Printf.sprintf "rollback %d %d" n before

let topology_to_string = function
  | `Lan -> "lan"
  | `Continent -> "continent"
  | `World -> "world"

(* ------------------------------------------------------------------ *)
(* Emitter.  Line-based, fixed field order, steps sorted by time:
   emitting then parsing then emitting again is byte-identical, which is
   what makes `.schedule` artifacts diff-friendly regression inputs. *)

let sorted_steps t =
  List.stable_sort (fun a b -> Int.compare a.at_ms b.at_ms) t.steps

let to_string t =
  let b = Buffer.create 512 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b s; Buffer.add_char b '\n') fmt in
  line "sbft-schedule v1";
  line "name %s" t.name;
  line "seed %Ld" t.seed;
  line "f %d" t.f;
  line "c %d" t.c;
  line "clients %d" t.clients;
  line "requests %d" t.requests;
  line "win %d" t.win;
  line "topology %s" (topology_to_string t.topology);
  line "acks %s" (if t.acks then "on" else "off");
  line "wal %s" (if t.wal then "on" else "off");
  line "rejoin %s" (if t.rejoin_conservative then "conservative" else "eager");
  line "mutation %s"
    (match t.mutation with
    | None -> "none"
    | Some Config.Weak_sigma_quorum -> "weak-sigma"
    | Some Config.Weak_tau_quorum -> "weak-tau"
    | Some Config.Weak_vc_quorum -> "weak-vc");
  (match t.adversary with
  | None -> ()
  | Some a ->
      line "adversary %s pool %s budget %d every %d from %d until %d"
        (policy_to_string a.policy)
        (String.concat "," (List.map string_of_int a.pool))
        a.budget a.every_ms a.from_ms a.until_ms);
  (match t.gst_ms with None -> line "gst none" | Some g -> line "gst %d" g);
  line "horizon %d" t.horizon_ms;
  (match t.expect with
  | Expect_any -> ()
  | Expect_pass -> line "expect pass"
  | Expect_fail oracle -> line "expect fail %s" oracle);
  List.iter (fun s -> line "step %d %s" s.at_ms (action_to_string s.action)) (sorted_steps t);
  line "end";
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Parser *)

let parse_int what s =
  match int_of_string_opt s with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "bad %s %S" what s)

let parse_groups s =
  let parse_group g =
    let parts = String.split_on_char ',' g in
    List.fold_left
      (fun acc p ->
        match (acc, int_of_string_opt p) with
        | Ok nodes, Some n -> Ok (n :: nodes)
        | Ok _, None -> Error (Printf.sprintf "bad partition node %S" p)
        | (Error _ as e), _ -> e)
      (Ok []) parts
    |> Result.map List.rev
  in
  let groups = String.split_on_char '|' s in
  List.fold_left
    (fun acc g ->
      match (acc, parse_group g) with
      | Ok gs, Ok nodes -> Ok (nodes :: gs)
      | Ok _, (Error _ as e) -> e
      | (Error _ as e), _ -> e)
    (Ok []) groups
  |> Result.map List.rev

let parse_action words =
  match words with
  | [ "crash"; n ] -> Result.map (fun n -> Crash n) (parse_int "node" n)
  | [ "crash-amnesia"; n ] -> Result.map (fun n -> Crash_amnesia n) (parse_int "node" n)
  | [ "recover"; n ] -> Result.map (fun n -> Recover n) (parse_int "node" n)
  | [ "partition"; spec ] -> Result.map (fun g -> Partition g) (parse_groups spec)
  | [ "heal" ] -> Ok Heal
  | [ "drop"; p ] -> (
      match float_of_string_opt p with
      | Some p when p >= 0.0 && p <= 1.0 -> Ok (Set_drop p)
      | _ -> Error (Printf.sprintf "bad drop probability %S" p))
  | [ "delay"; src; dst; ms ] ->
      Result.bind (parse_int "src" src) (fun src ->
          Result.bind (parse_int "dst" dst) (fun dst ->
              Result.map
                (fun delay_ms -> Delay_link { src; dst; delay_ms })
                (parse_int "delay" ms)))
  | [ "isolate"; n ] -> Result.map (fun n -> Isolate n) (parse_int "node" n)
  | [ "reconnect"; n ] -> Result.map (fun n -> Reconnect n) (parse_int "node" n)
  | [ "byz"; n; b ] ->
      Result.bind (parse_int "node" n) (fun n ->
          match byz_of_string b with
          | Some b -> Ok (Byzantine (n, b))
          | None -> Error (Printf.sprintf "unknown byzantine behaviour %S" b))
  | [ "slow"; n; s ] ->
      Result.bind (parse_int "node" n) (fun n ->
          match float_of_string_opt s with
          | Some scale when scale >= 1.0 -> Ok (Slow (n, scale))
          | _ -> Error (Printf.sprintf "bad slow scale %S" s))
  | [ "flap"; src; dst; period; up ] ->
      Result.bind (parse_int "src" src) (fun src ->
          Result.bind (parse_int "dst" dst) (fun dst ->
              Result.bind (parse_int "flap period" period) (fun period_ms ->
                  Result.bind (parse_int "flap up" up) (fun up_ms ->
                      if period_ms < 1 || up_ms < 0 then
                        Error "flap period must be positive and up non-negative"
                      else Ok (Flap { src; dst; period_ms; up_ms })))))
  | [ "unflap"; n ] -> Result.map (fun n -> Unflap n) (parse_int "node" n)
  | [ "fsync-delay"; n; s ] ->
      Result.bind (parse_int "node" n) (fun n ->
          match float_of_string_opt s with
          | Some scale when scale >= 1.0 -> Ok (Fsync_delay (n, scale))
          | _ -> Error (Printf.sprintf "bad fsync-delay scale %S" s))
  | [ "rollback"; n; before ] ->
      Result.bind (parse_int "node" n) (fun n ->
          Result.map (fun before -> Rollback (n, before)) (parse_int "rollback seq" before))
  | _ -> Error (Printf.sprintf "unknown action %S" (String.concat " " words))

let parse_pool s =
  List.fold_left
    (fun acc p ->
      match (acc, int_of_string_opt p) with
      | Ok nodes, Some n when n >= 0 -> Ok (n :: nodes)
      | Ok _, _ -> Error (Printf.sprintf "bad adversary pool node %S" p)
      | (Error _ as e), _ -> e)
    (Ok [])
    (String.split_on_char ',' s)
  |> Result.map List.rev

let parse_adversary words =
  match words with
  | [ p; "pool"; pool; "budget"; b; "every"; e; "from"; fr; "until"; u ] -> (
      match policy_of_string p with
      | None -> Error (Printf.sprintf "unknown adversary policy %S" p)
      | Some policy ->
          Result.bind (parse_pool pool) (fun pool ->
              Result.bind (parse_int "budget" b) (fun budget ->
                  Result.bind (parse_int "every" e) (fun every_ms ->
                      Result.bind (parse_int "from" fr) (fun from_ms ->
                          Result.bind (parse_int "until" u) (fun until_ms ->
                              if pool = [] then Error "adversary pool is empty"
                              else if budget < 0 then Error "negative adversary budget"
                              else if every_ms < 1 then Error "adversary tick must be positive"
                              else if until_ms < from_ms then Error "adversary until before from"
                              else
                                Ok { policy; pool; budget; every_ms; from_ms; until_ms }))))))
  | _ -> Error (Printf.sprintf "bad adversary line %S" (String.concat " " words))

let default ~name ~seed =
  {
    name;
    seed;
    f = 1;
    c = 0;
    clients = 2;
    requests = 4;
    win = 8;
    topology = `Lan;
    acks = true;
    wal = true;
    rejoin_conservative = true;
    mutation = None;
    adversary = None;
    gst_ms = None;
    horizon_ms = 30_000;
    expect = Expect_any;
    steps = [];
  }

let parse text =
  let lines =
    String.split_on_char '\n' text
    |> List.map (fun l -> String.trim l)
    |> List.filter (fun l -> String.length l > 0 && not (Char.equal l.[0] '#'))
  in
  let words l =
    String.split_on_char ' ' l |> List.filter (fun w -> String.length w > 0)
  in
  match lines with
  | header :: rest when String.equal header "sbft-schedule v1" ->
      let t = ref (default ~name:"unnamed" ~seed:1L) in
      let steps = ref [] in
      let err = ref None in
      let ended = ref false in
      let fail msg = if Option.is_none !err then err := Some msg in
      let set_field f = match f with Ok v -> v | Error e -> fail e; !t in
      List.iter
        (fun l ->
          if Option.is_none !err && not !ended then
            match words l with
            | [ "name"; n ] -> t := { !t with name = n }
            | "name" :: parts -> t := { !t with name = String.concat " " parts }
            | [ "seed"; s ] -> (
                match Int64.of_string_opt s with
                | Some seed -> t := { !t with seed }
                | None -> fail (Printf.sprintf "bad seed %S" s))
            | [ "f"; v ] -> t := set_field (Result.map (fun f -> { !t with f }) (parse_int "f" v))
            | [ "c"; v ] -> t := set_field (Result.map (fun c -> { !t with c }) (parse_int "c" v))
            | [ "clients"; v ] ->
                t := set_field (Result.map (fun clients -> { !t with clients }) (parse_int "clients" v))
            | [ "requests"; v ] ->
                t := set_field (Result.map (fun requests -> { !t with requests }) (parse_int "requests" v))
            | [ "win"; v ] -> t := set_field (Result.map (fun win -> { !t with win }) (parse_int "win" v))
            | [ "topology"; "lan" ] -> t := { !t with topology = `Lan }
            | [ "topology"; "continent" ] -> t := { !t with topology = `Continent }
            | [ "topology"; "world" ] -> t := { !t with topology = `World }
            | [ "topology"; other ] -> fail (Printf.sprintf "unknown topology %S" other)
            | [ "acks"; "on" ] -> t := { !t with acks = true }
            | [ "acks"; "off" ] -> t := { !t with acks = false }
            | [ "wal"; "on" ] -> t := { !t with wal = true }
            | [ "wal"; "off" ] -> t := { !t with wal = false }
            | [ "rejoin"; "conservative" ] -> t := { !t with rejoin_conservative = true }
            | [ "rejoin"; "eager" ] -> t := { !t with rejoin_conservative = false }
            | [ "rejoin"; other ] -> fail (Printf.sprintf "unknown rejoin mode %S" other)
            | [ "mutation"; "none" ] -> t := { !t with mutation = None }
            | [ "mutation"; "weak-sigma" ] -> t := { !t with mutation = Some Config.Weak_sigma_quorum }
            | [ "mutation"; "weak-tau" ] -> t := { !t with mutation = Some Config.Weak_tau_quorum }
            | [ "mutation"; "weak-vc" ] -> t := { !t with mutation = Some Config.Weak_vc_quorum }
            | [ "mutation"; other ] -> fail (Printf.sprintf "unknown mutation %S" other)
            | "adversary" :: adv_words -> (
                match parse_adversary adv_words with
                | Ok a -> t := { !t with adversary = Some a }
                | Error e -> fail e)
            | [ "gst"; "none" ] -> t := { !t with gst_ms = None }
            | [ "gst"; v ] ->
                t := set_field (Result.map (fun g -> { !t with gst_ms = Some g }) (parse_int "gst" v))
            | [ "horizon"; v ] ->
                t := set_field (Result.map (fun horizon_ms -> { !t with horizon_ms }) (parse_int "horizon" v))
            | [ "expect"; "pass" ] -> t := { !t with expect = Expect_pass }
            | [ "expect"; "any" ] -> t := { !t with expect = Expect_any }
            | [ "expect"; "fail"; oracle ] -> t := { !t with expect = Expect_fail oracle }
            | "step" :: at :: action_words -> (
                match parse_int "step time" at with
                | Error e -> fail e
                | Ok at_ms -> (
                    match parse_action action_words with
                    | Ok action -> steps := { at_ms; action } :: !steps
                    | Error e -> fail e))
            | [ "end" ] -> ended := true
            | _ -> fail (Printf.sprintf "unparseable line %S" l))
        rest;
      (match !err with
      | Some e -> Error e
      | None ->
          if not !ended then Error "missing end line"
          else
            let t = { !t with steps = List.rev !steps } in
            if t.f < 0 || t.c < 0 then Error "negative f or c"
            else if t.clients < 1 then Error "need at least one client"
            else if t.requests < 1 then Error "need at least one request"
            else if t.horizon_ms < 1 then Error "horizon must be positive"
            else
              let bad_pool =
                match t.adversary with
                | None -> false
                | Some a -> List.exists (fun n -> n >= num_replicas t) a.pool
              in
              if bad_pool then Error "adversary pool names a non-replica node"
              else Ok { t with steps = sorted_steps t })
  | _ -> Error "not an sbft-schedule v1 file"

(* ------------------------------------------------------------------ *)
(* Files *)

let save ~path t =
  let oc = open_out path in
  output_string oc (to_string t);
  close_out oc

let load ~path =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> parse text
  | exception Sys_error e -> Error e
