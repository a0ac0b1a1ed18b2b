(** The paper's evaluation, experiment by experiment (see DESIGN.md's
    per-experiment index).  Each function prints its tables to stdout
    and optionally writes a CSV next to the working directory.

    [scale] trades fidelity for runtime: [`Full] is the paper's setting
    (f = 64, n = 193–209, clients 4..256); [`Quick] shrinks to f = 8 and
    fewer client points so the whole suite runs in minutes. *)

type scale = [ `Quick | `Full ]

val fig1 : unit -> unit
(** Reproduces Figure 1: runs n=4, f=1, c=0 on one request with tracing
    and prints the fast-path message flow. *)

val fig2_fig3 : ?csv:string -> scale -> unit
(** The Figure 2 (throughput vs clients) and Figure 3 (latency vs
    throughput) grids: {batch, no-batch} × {0, c, f failures} × five
    protocols. *)

val contract_bench : scale -> [ `Continent | `World ] -> unit
(** The smart-contract benchmark (§IX): SBFT vs PBFT running the
    Ethereum-like trace, reporting tx/s and median latency. *)

val contract_baseline : unit -> unit
(** The unreplicated single-machine execution baseline (≈840 tx/s). *)

val ablation_c : scale -> unit
(** Ingredient 4: sweep c ∈ {0,1,2,f/8} under 0 and c failures. *)

val ablation_fast_mode : scale -> unit
(** §VIII group signatures vs threshold signatures on the fast path. *)

val ablation_stagger : scale -> unit
(** Collector staggering on/off: redundant collector duplication cost. *)

val replay : unit -> bool
(** R8: run each example scenario twice from the same seed and compare
    the trace streams event-by-event ({!Sbft_sim.Replay}).  Prints one
    line per scenario (stream digest, or the first divergent event) and
    returns [false] on any divergence.  Exposed as [dune build @replay]
    via [bin/sbft_replay.exe]. *)

(** {2 Test hooks} *)

val replay_scenarios : unit -> (string * Scenario.t) list
(** The named scenarios {!replay} runs, in its output order. *)
