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

let ( let* ) = Result.bind

let config t =
  {
    (Config.sbft ~f:t.f ~c:t.c) with
    Config.win = t.win;
    execution_acks = t.acks;
    durable_wal = t.wal;
    conservative_rejoin = t.rejoin_conservative;
    mutation = t.mutation;
  }

let num_replicas t = Config.n (config t)
let num_nodes t = num_replicas t + t.clients

(* ------------------------------------------------------------------ *)
(* Keywords.  Each enumerated value of the language is named in one
   [(value, keyword)] table: the emitter reads it left to right, the
   parser right to left. *)

let byz_keywords =
  Replica.
    [ (Equivocating_primary, "equivocate"); (Silent, "silent");
      (Corrupt_shares, "corrupt-shares"); (Wrong_exec_digest, "wrong-exec-digest");
      (Stale_view_change, "stale-vc"); (Honest, "honest") ]

let policy_keywords =
  [ (Equivocating_collector, "equivocating-collector");
    (Withhold_until_threshold, "withhold-until-threshold"); (View_change_storm, "vc-storm");
    (Checkpoint_split, "checkpoint-split") ]

let mutation_keywords =
  Config.
    [ (None, "none"); (Some Weak_sigma_quorum, "weak-sigma"); (Some Weak_tau_quorum, "weak-tau");
      (Some Weak_vc_quorum, "weak-vc") ]

let rejoin_keywords = [ (true, "conservative"); (false, "eager") ]
let switch_keywords = [ (true, "on"); (false, "off") ]
let keyword table v = List.assoc v table

let of_keyword what table word =
  match List.find_opt (fun (_, k) -> String.equal k word) table with
  | Some (v, _) -> Ok v
  | None -> Error (Printf.sprintf "unknown %s %S" what word)

(* ------------------------------------------------------------------ *)
(* Values *)

let parse_int what s =
  match int_of_string_opt s with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "bad %s %S" what s)

let rec parse_all parse = function
  | [] -> Ok []
  | x :: rest ->
      let* v = parse x in
      let* vs = parse_all parse rest in
      Ok (v :: vs)

let ints_to_string ns = String.concat "," (List.map string_of_int ns)
let parse_ints what s = parse_all (parse_int what) (String.split_on_char ',' s)

let parse_scale what s =
  match float_of_string_opt s with
  | Some scale when scale >= 1.0 -> Ok scale
  | _ -> Error (Printf.sprintf "bad %s scale %S" what s)

(* ------------------------------------------------------------------ *)
(* Steps *)

let action_to_string = function
  | Crash n -> Printf.sprintf "crash %d" n
  | Crash_amnesia n -> Printf.sprintf "crash-amnesia %d" n
  | Recover n -> Printf.sprintf "recover %d" n
  | Partition groups -> "partition " ^ String.concat "|" (List.map ints_to_string groups)
  | Heal -> "heal"
  | Set_drop p -> Printf.sprintf "drop %g" p
  | Delay_link { src; dst; delay_ms } -> Printf.sprintf "delay %d %d %d" src dst delay_ms
  | Isolate n -> Printf.sprintf "isolate %d" n
  | Reconnect n -> Printf.sprintf "reconnect %d" n
  | Byzantine (n, b) -> Printf.sprintf "byz %d %s" n (keyword byz_keywords b)
  | Slow (n, scale) -> Printf.sprintf "slow %d %g" n scale
  | Flap { src; dst; period_ms; up_ms } ->
      Printf.sprintf "flap %d %d %d %d" src dst period_ms up_ms
  | Unflap n -> Printf.sprintf "unflap %d" n
  | Fsync_delay (n, scale) -> Printf.sprintf "fsync-delay %d %g" n scale
  | Rollback (n, before) -> Printf.sprintf "rollback %d %d" n before

let parse_action words =
  let node = parse_int "node" in
  match words with
  | [ "crash"; n ] -> Result.map (fun n -> Crash n) (node n)
  | [ "crash-amnesia"; n ] -> Result.map (fun n -> Crash_amnesia n) (node n)
  | [ "recover"; n ] -> Result.map (fun n -> Recover n) (node n)
  | [ "partition"; spec ] ->
      Result.map
        (fun g -> Partition g)
        (parse_all (parse_ints "partition node") (String.split_on_char '|' spec))
  | [ "heal" ] -> Ok Heal
  | [ "drop"; p ] -> (
      match float_of_string_opt p with
      | Some p when p >= 0.0 && p <= 1.0 -> Ok (Set_drop p)
      | _ -> Error (Printf.sprintf "bad drop probability %S" p))
  | [ "delay"; src; dst; ms ] ->
      let* src = parse_int "src" src in
      let* dst = parse_int "dst" dst in
      let* delay_ms = parse_int "delay" ms in
      Ok (Delay_link { src; dst; delay_ms })
  | [ "isolate"; n ] -> Result.map (fun n -> Isolate n) (node n)
  | [ "reconnect"; n ] -> Result.map (fun n -> Reconnect n) (node n)
  | [ "byz"; n; b ] ->
      let* n = node n in
      let* b = of_keyword "byzantine behaviour" byz_keywords b in
      Ok (Byzantine (n, b))
  | [ "slow"; n; s ] ->
      let* n = node n in
      let* scale = parse_scale "slow" s in
      Ok (Slow (n, scale))
  | [ "flap"; src; dst; period; up ] ->
      let* src = parse_int "src" src in
      let* dst = parse_int "dst" dst in
      let* period_ms = parse_int "flap period" period in
      let* up_ms = parse_int "flap up" up in
      if period_ms < 1 || up_ms < 0 then Error "flap period must be positive and up non-negative"
      else Ok (Flap { src; dst; period_ms; up_ms })
  | [ "unflap"; n ] -> Result.map (fun n -> Unflap n) (node n)
  | [ "fsync-delay"; n; s ] ->
      let* n = node n in
      let* scale = parse_scale "fsync-delay" s in
      Ok (Fsync_delay (n, scale))
  | [ "rollback"; n; before ] ->
      let* n = node n in
      let* before = parse_int "rollback seq" before in
      Ok (Rollback (n, before))
  | _ -> Error (Printf.sprintf "unknown action %S" (String.concat " " words))

(* ------------------------------------------------------------------ *)
(* Header *)

let adversary_to_string a =
  Printf.sprintf "%s pool %s budget %d every %d from %d until %d"
    (keyword policy_keywords a.policy) (ints_to_string a.pool) a.budget a.every_ms a.from_ms
    a.until_ms

let parse_adversary = function
  | [ p; "pool"; pool; "budget"; b; "every"; e; "from"; fr; "until"; u ] ->
      Some
        (let* policy = of_keyword "adversary policy" policy_keywords p in
         let* pool = parse_ints "adversary pool node" pool in
         let* budget = parse_int "budget" b in
         let* every_ms = parse_int "every" e in
         let* from_ms = parse_int "from" fr in
         let* until_ms = parse_int "until" u in
         if budget < 0 then Error "negative adversary budget"
         else if every_ms < 1 then Error "adversary tick must be positive"
         else if until_ms < from_ms then Error "adversary until before from"
         else Ok (Some { policy; pool; budget; every_ms; from_ms; until_ms }))
  | _ -> None

let expect_to_string = function
  | Expect_any -> None
  | Expect_pass -> Some "pass"
  | Expect_fail oracle -> Some ("fail " ^ oracle)

let parse_expect = function
  | [ "pass" ] -> Some (Ok Expect_pass)
  | [ "any" ] -> Some (Ok Expect_any)
  | [ "fail"; oracle ] -> Some (Ok (Expect_fail oracle))
  | _ -> None

(* One header line: [key], then the words [print] gives for the value
   ([None] leaves the line out).  The [parse] given to [field] reads
   those words back, and is [None] when they have the wrong shape. *)
type field = {
  key : string;
  print : t -> string option;
  read : t -> string list -> (t, string) result;
}

let field key print parse get set =
  let read t words =
    match parse words with
    | Some v -> Result.map (set t) v
    | None -> Error (Printf.sprintf "bad %s line %S" key (String.concat " " words))
  in
  { key; print = (fun t -> print (get t)); read }

let one_word key print parse =
  field key (fun v -> Some (print v)) (function [ w ] -> Some (parse w) | _ -> None)

let int_field key = one_word key string_of_int (parse_int key)
let keyword_field key table = one_word key (keyword table) (of_keyword key table)

let parse_seed s =
  Option.to_result ~none:(Printf.sprintf "bad seed %S" s) (Int64.of_string_opt s)

let gst_to_string = function None -> "none" | Some g -> string_of_int g
let parse_gst = function "none" -> Ok None | v -> Result.map Option.some (parse_int "gst" v)

(* Emission order; the parser accepts the lines in any order. *)
let fields =
  [
    field "name" Option.some
      (fun words -> Some (Ok (String.concat " " words)))
      (fun t -> t.name)
      (fun t name -> { t with name });
    one_word "seed" Int64.to_string parse_seed (fun t -> t.seed) (fun t seed -> { t with seed });
    int_field "f" (fun t -> t.f) (fun t f -> { t with f });
    int_field "c" (fun t -> t.c) (fun t c -> { t with c });
    int_field "clients" (fun t -> t.clients) (fun t clients -> { t with clients });
    int_field "requests" (fun t -> t.requests) (fun t requests -> { t with requests });
    int_field "win" (fun t -> t.win) (fun t win -> { t with win });
    keyword_field "topology" Sbft_sim.Topology.kind_names (fun t -> t.topology)
      (fun t topology -> { t with topology });
    keyword_field "acks" switch_keywords (fun t -> t.acks) (fun t acks -> { t with acks });
    keyword_field "wal" switch_keywords (fun t -> t.wal) (fun t wal -> { t with wal });
    keyword_field "rejoin" rejoin_keywords (fun t -> t.rejoin_conservative)
      (fun t rejoin_conservative -> { t with rejoin_conservative });
    keyword_field "mutation" mutation_keywords (fun t -> t.mutation)
      (fun t mutation -> { t with mutation });
    field "adversary" (Option.map adversary_to_string) parse_adversary (fun t -> t.adversary)
      (fun t adversary -> { t with adversary });
    one_word "gst" gst_to_string parse_gst (fun t -> t.gst_ms) (fun t gst_ms -> { t with gst_ms });
    int_field "horizon" (fun t -> t.horizon_ms) (fun t horizon_ms -> { t with horizon_ms });
    field "expect" expect_to_string parse_expect (fun t -> t.expect) (fun t expect -> { t with expect });
  ]

(* ------------------------------------------------------------------ *)
(* Emitter.  Line-based, fixed field order, steps sorted by time:
   emitting then parsing then emitting again is byte-identical, which is
   what makes `.schedule` artifacts diff-friendly regression inputs. *)

let sorted_steps t =
  List.stable_sort (fun a b -> Int.compare a.at_ms b.at_ms) t.steps

let to_string t =
  let b = Buffer.create 512 in
  let line s = Buffer.add_string b s; Buffer.add_char b '\n' in
  line "sbft-schedule v1";
  List.iter (fun fld -> Option.iter (fun v -> line (fld.key ^ " " ^ v)) (fld.print t)) fields;
  List.iter
    (fun s -> line (Printf.sprintf "step %d %s" s.at_ms (action_to_string s.action)))
    (sorted_steps t);
  line "end";
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Parser *)

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

(* The cluster rules are [Config.validate]'s, so a schedule that parses
   can be built. *)
let validate t =
  let* () = Config.validate (config t) in
  let bad_pool =
    match t.adversary with
    | None -> false
    | Some a -> List.exists (fun n -> n < 0 || n >= num_replicas t) a.pool
  in
  if t.clients < 1 then Error "need at least one client"
  else if t.requests < 1 then Error "need at least one request"
  else if t.horizon_ms < 1 then Error "horizon must be positive"
  else if bad_pool then Error "adversary pool names a non-replica node"
  else Ok { t with steps = sorted_steps t }

let parse text =
  let lines =
    String.split_on_char '\n' text
    |> List.map (fun l -> String.trim l)
    |> List.filter (fun l -> String.length l > 0 && not (Char.equal l.[0] '#'))
  in
  let words l =
    String.split_on_char ' ' l |> List.filter (fun w -> String.length w > 0)
  in
  (* Lines after [end] are ignored. *)
  let rec body t steps = function
    | [] -> Error "missing end line"
    | l :: rest -> (
        match words l with
        | [ "end" ] -> Ok { t with steps = List.rev steps }
        | "step" :: at :: action_words ->
            let* at_ms = parse_int "step time" at in
            let* action = parse_action action_words in
            body t ({ at_ms; action } :: steps) rest
        | key :: args -> (
            match List.find_opt (fun fld -> String.equal fld.key key) fields with
            | Some fld ->
                let* t = fld.read t args in
                body t steps rest
            | None -> Error (Printf.sprintf "unparseable line %S" l))
        | [] -> Error (Printf.sprintf "unparseable line %S" l))
  in
  match lines with
  | header :: rest when String.equal header "sbft-schedule v1" ->
      let* t = body (default ~name:"unnamed" ~seed:1L) [] rest in
      validate t
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
