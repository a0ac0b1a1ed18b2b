(* The repository benchmark.

     perf.exe [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
     perf.exe --smoke

   Each repetition of a workload runs in a fresh child process (this
   executable re-executed with [child]), because the cost tally and the
   crypto and collector memos are process globals.  Repetitions run one
   at a time until [--seconds] of host time are used (at least three
   untraced ones); host metrics are medians over them, virtual metrics
   must agree exactly across them.  [--trace 1] alternates untraced and
   traced repetitions and reports the per-layer metrics instead.

   Every metric is printed as [name value unit]; the full report goes to
   bench_out/perf.json and the last line of standard output is a JSON
   summary.  [--smoke] runs every workload shrunk to f=1, traced and
   untraced, plus the checks that need no full run, and prints only
   whether they passed.  The exit code is non-zero when a correctness
   gate fails. *)

open Sbft_harness
module Json = Report.Json

let now_s = Drive.now_s

(* ------------------------------------------------------------------ *)
(* Child side *)

let json_of_result (r : Drive.result) =
  let v = r.Drive.virt in
  let num x = Json.Num x and int x = Json.Num (float_of_int x) in
  Json.Obj
    [
      ( "virt",
        Json.Obj
          [
            ("budget_requests", int v.Drive.budget_requests);
            ("completed_requests", int v.Drive.completed_requests);
            ("ops_per_request", int v.Drive.ops_per_request);
            ("throughput_ops", num v.Drive.throughput_ops);
            ("window_throughput_ops", num v.Drive.window_throughput_ops);
            ("p50_ms", num v.Drive.p50_ms);
            ("p95_ms", num v.Drive.p95_ms);
            ("p99_ms", num v.Drive.p99_ms);
            ("events", int v.Drive.events);
            ("messages", int v.Drive.messages);
            ("bytes", int v.Drive.bytes);
            ("agreement", Json.Bool v.Drive.agreement);
          ] );
      ("setup_s", num r.Drive.setup_s);
      ("wall_s", num r.Drive.wall_s);
      ("peak_heap_mb", num r.Drive.peak_heap_mb);
      ("layers", Json.Obj (List.map (fun (k, x) -> (k, num x)) r.Drive.layers));
    ]

(* The virtual outputs {!Scenario.run} reports too, under the names
   {!Drive} gives them: what the same-program check compares. *)
let shared_outputs =
  [
    "completed_requests"; "window_throughput_ops"; "p50_ms"; "p99_ms"; "events"; "messages";
    "bytes"; "agreement";
  ]

let json_of_point (p : Scenario.point) =
  let num x = Json.Num x and int x = Json.Num (float_of_int x) in
  Json.Obj
    [
      ( "virt",
        Json.Obj
          [
            ("completed_requests", int p.Scenario.completed_requests);
            ("window_throughput_ops", num p.Scenario.throughput_ops);
            ("p50_ms", num p.Scenario.median_latency_ms);
            ("p99_ms", num p.Scenario.p99_latency_ms);
            ("events", int p.Scenario.events);
            ("messages", int p.Scenario.messages);
            ("bytes", int p.Scenario.bytes);
            ("agreement", Json.Bool p.Scenario.agreement);
          ] );
    ]

let scenario_of ~smoke ~seed (w : Workload.t) =
  let sc = { w.Workload.scenario with Scenario.seed = Int64.of_int seed } in
  if smoke then Workload.smoke sc else sc

(* [child --workload W --seed N --trace 0|1 [--smoke] [--after A]
   [--scenario]]: one repetition, its result as JSON on standard output.
   [--after A] first runs workload A in the same process (the isolation
   check); [--scenario] runs {!Scenario.run} instead (the same-program
   check). *)
let child ~workload ~seed ~trace ~smoke ~after ~scenario =
  let sc = scenario_of ~smoke ~seed workload in
  Option.iter (fun a -> ignore (Drive.run (scenario_of ~smoke ~seed a) : Drive.result)) after;
  let json =
    if scenario then json_of_point (Scenario.run sc)
    else json_of_result (Drive.run ~traced:trace sc)
  in
  print_string (Json.to_string json)

(* ------------------------------------------------------------------ *)
(* Parent side *)

exception Gate of string

let gate cond fmt = Printf.ksprintf (fun msg -> if not cond then raise (Gate msg)) fmt

let spawn args =
  let argv = Array.of_list (Sys.executable_name :: "child" :: args) in
  let ic = Unix.open_process_args_in Sys.executable_name argv in
  let out = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> (
      match Json.parse out with
      | Ok j -> j
      | Error e -> raise (Gate (Printf.sprintf "child %s: bad output (%s)" (String.concat " " args) e)))
  | _ -> raise (Gate (Printf.sprintf "child %s failed" (String.concat " " args)))

let field key j =
  match Option.bind (Json.member key j) Json.to_float with
  | Some x -> x
  | None -> raise (Gate (Printf.sprintf "child output lacks %S" key))

let virt j =
  match Json.member "virt" j with
  | Some v -> v
  | None -> raise (Gate "child output lacks its virtual outputs")

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

type outcome = {
  metrics : (string * float) list;
  attempted : int;
  failed : int;
  reps : Json.t list;
}

let child_args ~smoke ~seed (w : Workload.t) extra =
  [ "--workload"; w.Workload.name; "--seed"; string_of_int seed ]
  @ (if smoke then [ "--smoke" ] else [])
  @ extra

(* Repeat [rep] until [seconds] of host time are used, at least [min]
   times, stopping before a repetition that would overrun. *)
let repeat ~seconds ~min rep =
  let t0 = now_s () in
  let rec go acc n =
    let elapsed = now_s () -. t0 in
    if n >= min && elapsed +. (elapsed /. float_of_int n) > seconds then List.rev acc
    else go (rep () :: acc) (n + 1)
  in
  go [] 0

let run_workload ~smoke ~seed ~seconds ~trace (w : Workload.t) =
  let spawn_rep traced =
    spawn (child_args ~smoke ~seed w [ "--trace"; (if traced then "1" else "0") ])
  in
  let min = if smoke then 1 else if trace then 1 else 3 in
  let rounds =
    repeat ~seconds ~min (fun () ->
        if trace then [ spawn_rep false; spawn_rep true ] else [ spawn_rep false ])
  in
  let reps = List.concat rounds in
  let untraced = List.map List.hd rounds in
  let traced = if trace then List.map (fun r -> List.nth r 1) rounds else [] in
  (* Gates: every repetition reproduces the first one's virtual outputs
     (traced or not), agreement holds, and a workload without faults
     completes its whole budget. *)
  let first = virt (List.hd reps) in
  List.iteri
    (fun i r ->
      gate (virt r = first) "%s: repetition %d differs in its virtual outputs%s" w.Workload.name
        (i + 1)
        (if trace then " (traced and untraced runs must agree)" else ""))
    reps;
  gate (Json.member "agreement" first = Some (Json.Bool true)) "%s: agreement violated"
    w.Workload.name;
  let budget = int_of_float (field "budget_requests" first) in
  let completed = int_of_float (field "completed_requests" first) in
  let ops = int_of_float (field "ops_per_request" first) in
  let no_fault = w.Workload.scenario.Scenario.crash_primary_at = None in
  gate ((not no_fault) || completed = budget) "%s: completed %d of %d requests without a fault"
    w.Workload.name completed budget;
  let host key rs = median (List.map (field key) rs) in
  let metrics =
    if trace then begin
      let layers r =
        match Json.member "layers" r with
        | Some l -> l
        | None -> raise (Gate "traced child output lacks its layers")
      in
      (* Every span nests inside the engine's, so the self times of all
         spans add up to the traced run's wall time. *)
      List.iter
        (fun r ->
          let frac = field "trace.span_sum_frac" (layers r) in
          gate (Float.abs (frac -. 1.) <= 0.05)
            "%s: span self times sum to %.3f of the traced wall time" w.Workload.name frac)
        traced;
      List.filter_map
        (fun (name, _) ->
          match Json.member name (layers (List.hd traced)) with
          | Some _ -> Some (name, median (List.map (fun r -> field name (layers r)) traced))
          | None -> None)
        Metrics.per_layer
      @ [ ("trace.overhead_frac", (host "wall_s" traced /. host "wall_s" untraced) -. 1.) ]
    end
    else
      [
        ("throughput_ops", field "throughput_ops" first);
        ("p50_ms", field "p50_ms" first);
        ("p95_ms", field "p95_ms" first);
        ("wall_s", host "wall_s" reps);
        ("setup_s", host "setup_s" reps);
        ("peak_heap_mb", host "peak_heap_mb" reps);
      ]
  in
  let n = List.length reps in
  { metrics; attempted = n * budget * ops; failed = n * (budget - completed) * ops; reps }

(* ------------------------------------------------------------------ *)
(* Smoke checks *)

(* The benchmark's untraced run reproduces [Scenario.run] on the same
   scenario, and a workload's virtual outputs do not depend on what ran
   before it in the same process. *)
let smoke_checks ~seed =
  List.iter
    (fun (w : Workload.t) ->
      let args extra = child_args ~smoke:true ~seed w ("--trace" :: "0" :: extra) in
      let shared j =
        match virt j with
        | Json.Obj fields -> List.filter (fun (k, _) -> List.mem k shared_outputs) fields
        | _ -> []
      in
      let alone = spawn (args []) in
      gate
        (shared alone = shared (spawn (args [ "--scenario" ])))
        "%s: the benchmark and Scenario.run disagree" w.Workload.name;
      let alone = virt alone in
      List.iter
        (fun (a : Workload.t) ->
          gate
            (virt (spawn (args [ "--after"; a.Workload.name ])) = alone)
            "%s: virtual outputs change when %s runs first in the same process"
            w.Workload.name a.Workload.name)
        Workload.all)
    Workload.all

(* BENCHMARK.json declares exactly the workloads and metrics (with
   units) this program reports. *)
let check_declaration ~emitted =
  let text = In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all in
  let decl = match Json.parse text with Ok j -> j | Error e -> raise (Gate ("BENCHMARK.json: " ^ e)) in
  let entries key =
    match Json.member key decl with
    | Some (Json.Arr items) ->
        List.map
          (fun item ->
            let str k = Option.bind (Json.member k item) Json.to_str in
            (Option.value (str "name") ~default:"", Option.value (str "unit") ~default:""))
          items
    | _ -> raise (Gate ("BENCHMARK.json lacks " ^ key))
  in
  let sorted l = List.sort compare l in
  gate
    (sorted (List.map fst (entries "workloads"))
    = sorted (List.map (fun w -> w.Workload.name) Workload.all))
    "BENCHMARK.json workloads differ from the benchmark's";
  gate (sorted (entries "end_to_end") = sorted Metrics.end_to_end)
    "BENCHMARK.json end_to_end metrics differ from the benchmark's";
  gate (sorted (entries "per_layer") = sorted Metrics.per_layer)
    "BENCHMARK.json per_layer metrics differ from the benchmark's";
  List.iter
    (fun (trace, declared) ->
      List.iter
        (fun (w, metrics) ->
          gate
            (sorted (List.map fst metrics) = sorted (List.map fst declared))
            "%s: emitted %s metrics differ from the declared ones" w
            (if trace then "per-layer" else "end-to-end"))
        (List.filter (fun (t, _) -> t = trace) emitted |> List.concat_map snd))
    [ (false, Metrics.end_to_end); (true, Metrics.per_layer) ]

(* ------------------------------------------------------------------ *)
(* Output *)

let unit_of name =
  match List.assoc_opt name (Metrics.end_to_end @ Metrics.per_layer) with
  | Some u -> u
  | None -> "?"

let bench_out file =
  if not (Sys.file_exists "bench_out") then Sys.mkdir "bench_out" 0o755;
  Filename.concat "bench_out" file

let one_line json =
  String.split_on_char '\n' (Json.to_string json) |> List.map String.trim |> String.concat ""

let report ~seed ~trace results =
  let single = match results with [ _ ] -> true | _ -> false in
  let key w name = if single then name else w ^ "/" ^ name in
  List.iter
    (fun (w, o) ->
      List.iter
        (fun (name, x) -> Printf.printf "%s %s %.17g %s\n" w name x (unit_of name))
        o.metrics)
    results;
  let metric_obj =
    Json.Obj
      (List.concat_map
         (fun (w, o) ->
           List.map
             (fun (name, x) ->
               (key w name, Json.Obj [ ("value", Json.Num x); ("unit", Json.Str (unit_of name)) ]))
             o.metrics)
         results)
  in
  let sum f = List.fold_left (fun acc (_, o) -> acc + f o) 0 results in
  let summary =
    Json.Obj
      [
        ("correct", Json.Bool true);
        ("attempted", Json.Num (float_of_int (max 1 (sum (fun o -> o.attempted)))));
        ("failed", Json.Num (float_of_int (sum (fun o -> o.failed))));
        ("metrics", metric_obj);
      ]
  in
  let full =
    Json.Obj
      [
        ("schema", Json.Str "sbft-perf-v1");
        ("seed", Json.Num (float_of_int seed));
        ("trace", Json.Bool trace);
        ( "workloads",
          Json.Obj (List.map (fun (w, o) -> (w, Json.Obj [ ("reps", Json.Arr o.reps) ])) results) );
        ("summary", summary);
      ]
  in
  Out_channel.with_open_bin (bench_out "perf.json") (fun oc ->
      output_string oc (Json.to_string full));
  print_endline (one_line summary)

(* ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: perf.exe [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] | --smoke";
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let is_child, args =
    match args with "child" :: rest -> (true, rest) | _ -> (false, args)
  in
  let rec opt key = function
    | k :: v :: _ when String.equal k key -> Some v
    | _ :: rest -> opt key rest
    | [] -> None
  in
  let flag key = List.mem key args in
  let int_opt key default =
    match opt key args with
    | None -> default
    | Some v -> ( match int_of_string_opt v with Some n -> n | None -> usage ())
  in
  let workload_opt key =
    Option.map
      (fun name ->
        match Workload.find name with
        | Some w -> w
        | None ->
            Printf.eprintf "unknown workload %S\n" name;
            exit 2)
      (opt key args)
  in
  let smoke = flag "--smoke" in
  let seed = int_opt "--seed" 11 in
  let trace =
    match int_opt "--trace" 0 with 0 -> false | 1 -> true | _ -> usage ()
  in
  if is_child then
    match workload_opt "--workload" with
    | None -> usage ()
    | Some workload ->
        child ~workload ~seed ~trace ~smoke ~after:(workload_opt "--after")
          ~scenario:(flag "--scenario")
  else begin
    let seconds = float_of_int (int_opt "--seconds" (if smoke then 0 else 25)) in
    let workloads =
      match workload_opt "--workload" with Some w -> [ w ] | None -> Workload.all
    in
    let modes = if smoke then [ false; true ] else [ trace ] in
    match
      let crypto =
        if List.mem true modes then
          let request = Sbft_workload.Kv_workload.make_op ~batching:true ~client:0 0 in
          List.map (fun (k, x) -> ("crypto." ^ k, x)) (Crypto_cost.measure ~request)
        else []
      in
      let emitted =
        List.map
          (fun trace ->
            ( trace,
              List.map
                (fun (w : Workload.t) ->
                  let o = run_workload ~smoke ~seed ~seconds ~trace w in
                  let o = if trace then { o with metrics = o.metrics @ crypto } else o in
                  (w.Workload.name, o))
                workloads ))
          modes
      in
      if smoke then begin
        smoke_checks ~seed;
        check_declaration
          ~emitted:
            (List.map (fun (t, rs) -> (t, List.map (fun (w, o) -> (w, o.metrics)) rs)) emitted)
      end;
      emitted
    with
    | _ when smoke -> print_endline "perf: every smoke check passed"
    | emitted ->
        List.iter (fun (trace, results) -> report ~seed ~trace results) emitted
    | exception Gate msg ->
        Printf.eprintf "perf: %s\n%!" msg;
        exit 1
  end
