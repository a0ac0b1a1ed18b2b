(** Benchmark regression harness: a fixed quick-scale scenario grid, a
    machine-readable JSON report ([BENCH_<n>.json]), and an exact
    comparator against a committed baseline ([bench/baseline.json]) —
    the gate that turns simulated performance changes into test
    failures.

    All measurements are virtual time from the deterministic simulator,
    so reports are bit-identical across hosts; a deliberate change
    ships with a reviewed baseline update. *)

type entry = {
  name : string;  (** grid row id, e.g. ["sbft-fast-optimistic"] *)
  protocol : string;
  n : int;
  f : int;
  c : int;
  clients : int;
  throughput_ops : float;
  p50_ms : float;
  p99_ms : float;
  fast_fraction : float;
  crypto_us : (string * float) list;
      (** per-label simulated CPU (virtual microseconds) charged during
          the run, from {!Sbft_crypto.Cost_model.Tally} — sorted by
          label *)
  wall_ms : float;
      (** host CPU time of the row ({!Scenario.point.host_seconds}, in
          ms; host-dependent) *)
  events : int;  (** simulator events executed (deterministic) *)
  events_per_sec : float;  (** events per host CPU second (host-dependent) *)
  minor_words : float;  (** minor-heap words allocated during the row *)
}

type report = { schema : string; entries : entry list }

val schema_id : string
(** ["sbft-bench-v2"]. *)

val measure : Experiments.scale -> report
(** Run the grid.  The two [sbft-fast-*] rows are the same scenario
    with optimistic combining on vs. the per-share-verification
    baseline ([Config.optimistic_combine = false]). *)

val write : path:string -> report -> unit

val load : path:string -> (Report.Json.t list, string) result
(** {!of_json} of a file: the baseline {!compare_reports} reads. *)

val compare_reports : baseline:Report.Json.t list -> current:report -> string list
(** One human-readable violation per differing field, in baseline
    order; empty means the gate passes.  Each measured row is written
    as JSON and compared with the baseline's: every field {!strip_host}
    keeps must equal the baseline exactly (a violation names the row
    and the field); [minor_words] must stay within ±30% of it.  Rows
    added, dropped or reshaped are violations too — they require a
    reviewed baseline update.  Wall clock is not gated here. *)

val print : report -> unit
(** Table + headline speedup to stdout. *)

(** {2 Paper-scale family}

    The n = 193/209 scenarios of the paper's evaluation (f = 64), each
    with a finite ≈102k-operation budget so the CI host CPU-time budget measures
    simulator speed, not a fixed horizon. *)

val paper_clients : int
val paper_requests_per_client : int

type paper_row = { entry : entry; point : Scenario.point }

val measure_paper : ?only:string -> unit -> paper_row list
(** Run the paper grid (or the one named row). *)

val paper_report_json : paper_row list -> string
(** Schema [sbft-paper-v1]: the v2 entry fields plus completion,
    view-change, agreement, and per-phase profile data — the smoke-job
    artifact. *)

(** {2 Seeded sweep} *)

type stat = { mean : float; ci95 : float }
(** Sample mean ± half-width of the two-sided 95% Student-t interval. *)

type sweep_row = {
  sweep_name : string;
  seeds : int;
  throughput : stat;
  p50_lat : stat;
  fast_frac : stat;
  wall_s : stat;  (** host CPU seconds per run, not wall clock *)
  ev_per_sec : stat;
}

val sweep : ?only:string -> seeds:int -> unit -> sweep_row list
(** Run each paper-grid row under [seeds] consecutive seeds. *)

val sweep_report_json : sweep_row list -> string
(** Schema [sbft-sweep-v1]. *)

val print_sweep : sweep_row list -> unit

(** {2 Test hooks} *)

val strip_host : report -> report
(** Zero the host- or process-history-dependent fields ([wall_ms],
    [events_per_sec], [minor_words]); what remains is bit-identical
    across hosts and reruns. *)

val measure_one : name:string -> Scenario.t -> entry
(** One scenario measured as a grid row named [name]. *)

val to_json : report -> string

val of_json : string -> (Report.Json.t list, string) result
(** A report's entries, as the JSON objects {!to_json} writes.  Rejects
    non-JSON, schemas other than {!schema_id} and a missing entries
    array. *)

val optimistic_speedup : report -> float option
(** Throughput ratio [sbft-fast-optimistic / sbft-fast-pershare]. *)

val durability_overhead : report -> float option
(** Throughput delta (percent) of [sbft-no-wal] over
    [sbft-fast-optimistic]: what disabling the write-ahead log buys,
    i.e. the price of crash-amnesia durability. *)
