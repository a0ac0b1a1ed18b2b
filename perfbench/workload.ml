(* The benchmark workloads.  Every one is a closed loop (one request
   outstanding per client, as in the paper) over the LAN topology
   profile, driven by one single-threaded process.  The request budgets
   are sized so that one repetition takes a few seconds of host time:
   a measured run repeats the workload in fresh processes and reports
   medians.  Each name ends in its traffic, clients x requests per
   client, because the budgets are smaller than those of the paper rows
   in [Regress.paper_grid] (64 x 25) and the mix differs from theirs. *)

open Sbft_sim
open Sbft_harness

(* Why each workload exists is recorded in BENCHMARK.json and README.md. *)
type t = { name : string; scenario : Scenario.t }

let lan ?crash_primary_at ~protocol ~f ~batching ~clients ~requests () =
  Scenario.default ~topology:`Lan ~warmup:(Engine.ms 200) ~duration:(Engine.sec 12)
    ~requests_per_client:requests ?crash_primary_at ~protocol ~f
    ~workload:(Scenario.Kv { batching }) ~num_clients:clients ()

let all =
  [
    {
      name = "paper-fast-n193-64x4";
      scenario =
        lan ~protocol:(Scenario.SBFT 0) ~f:64 ~batching:true ~clients:64
          ~requests:4 ();
    };
    {
      name = "paper-c8-n209-64x6";
      scenario =
        lan ~protocol:(Scenario.SBFT 8) ~f:64 ~batching:true ~clients:64
          ~requests:6 ();
    };
    {
      name = "paper-viewchange-n193-64x8";
      scenario =
        lan ~crash_primary_at:(Engine.ms 600) ~protocol:(Scenario.SBFT 0) ~f:64
          ~batching:true ~clients:64 ~requests:8 ();
    };
    {
      name = "pbft-nobatch-n49-32x40";
      scenario =
        lan ~protocol:Scenario.PBFT ~f:16 ~batching:false ~clients:32
          ~requests:40 ();
    };
  ]

let find name = List.find_opt (fun w -> String.equal w.name name) all

(* The smoke variant of a workload: f=1 and a handful of requests, so
   every code path of the benchmark runs in well under a second.  The
   run is over before the paper's 200 ms warm-up, so the measurement
   window starts at 0, and the crash moves earlier so the view change
   still happens mid-run. *)
let smoke (sc : Scenario.t) =
  {
    sc with
    Scenario.f = 1;
    warmup = 0;
    num_clients = 4;
    requests_per_client = 3;
    crash_primary_at = Option.map (fun _ -> Engine.ms 2) sc.Scenario.crash_primary_at;
  }

(* Request payloads, generated before any timing starts and handed to the
   program through [make_op]: the payloads [Scenario.run] and
   [regress --paper] send. *)
let payloads (sc : Scenario.t) =
  let batching =
    match sc.Scenario.workload with
    | Scenario.Kv { batching } -> batching
    | Scenario.Eth -> invalid_arg "Workload.payloads: KV workloads only"
  in
  Array.init sc.Scenario.num_clients (fun client ->
      Array.init sc.Scenario.requests_per_client (fun i ->
          Sbft_workload.Kv_workload.make_op ~batching ~client i))
