(* Every metric the benchmark reports, with its unit.  BENCHMARK.json
   declares the same names and units; the smoke run checks that the two
   agree. *)

let end_to_end =
  [
    ("throughput_ops", "ops/s");
    ("p50_ms", "ms");
    ("p95_ms", "ms");
    ("wall_s", "s");
    ("setup_s", "s");
    ("peak_heap_mb", "MiB");
  ]

(* Message kinds with a span of their own; every other kind a stack
   receives is summed into [<prefix>other]. *)
let handler_spans =
  [
    ( "core.replica.",
      [
        "request"; "pre-prepare"; "sign-share"; "full-commit-proof"; "prepare"; "commit";
        "full-commit-proof-slow"; "sign-state"; "full-execute-proof"; "view-change";
        "new-view"; "other";
      ] );
    ("core.client.", [ "execute-ack"; "reply" ]);
    ("pbft.replica.", [ "request"; "pre-prepare"; "prepare"; "commit"; "checkpoint"; "other" ]);
    ("pbft.client.", [ "reply" ]);
  ]

(* [Cost_model.Tally] labels charged by either protocol stack. *)
let vcpu_labels =
  [
    "combine"; "combined_verify"; "share_batch_verify"; "share_identify"; "share_sign";
    "proof_verify"; "rsa_sign"; "rsa_verify"; "hash"; "mac"; "merkle"; "exec"; "persist";
    "wal_append"; "wal_fsync";
  ]

let phases = [ "to_primary"; "order"; "commit"; "execute"; "ack" ]

(* Host microseconds per call at the paper's thresholds: sigma (k=193),
   tau (k=129) and pi (k=65) at n=193. *)
let crypto =
  [
    "share_sign_us"; "share_verify_us"; "verify_us"; "combine_k193_us"; "combine_k129_us";
    "combine_k65_us"; "sha256_batch64_us";
  ]

let per_layer =
  [
    ("sim.engine.self_s", "s");
    ("sim.engine.events", "count");
    ("sim.engine.ns_per_event", "ns");
    ("sim.engine.timers_fired", "count");
    ("sim.engine.timers_skipped", "count");
    ("sim.engine.max_pending", "count");
    ("sim.network.send_s", "s");
    ("sim.network.sends", "count");
    ("sim.network.dropped", "count");
    ("sim.network.msgs_per_op", "msgs/op");
    ("sim.network.bytes_per_op", "B/op");
  ]
  @ List.concat_map
      (fun (prefix, kinds) ->
        List.concat_map
          (fun k -> [ (prefix ^ k ^ ".self_s", "s"); (prefix ^ k ^ ".calls", "count") ])
          kinds)
      handler_spans
  @ [
      ("core.fast_fraction", "ratio");
      ("core.view_changes", "count");
      ("core.client.retries", "count");
      ("fault.outage_ms", "ms");
      ("store.apply_s", "s");
      ("store.apply_calls", "count");
      ("store.wal.appends_per_op", "count/op");
      ("store.wal.syncs_per_op", "count/op");
      ("store.wal.durable_mb", "MiB");
      ("workload.exec_cost_s", "s");
      ("workload.exec_cost_calls", "count");
      ("workload.gen_s", "s");
    ]
  @ List.map (fun l -> ("vcpu." ^ l ^ "_ms", "ms")) vcpu_labels
  @ List.map (fun p -> ("phase." ^ p ^ "_ms", "ms")) phases
  @ List.map (fun c -> ("crypto." ^ c, "us")) crypto
  @ [
      ("gc.minor_mwords", "Mwords");
      ("gc.major_collections", "count");
      ("trace.wall_s", "s");
      ("trace.overhead_frac", "ratio");
    ]
