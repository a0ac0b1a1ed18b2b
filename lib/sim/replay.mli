(** Replay-divergence checker (rule R8, the runtime twin of the R7
    determinism lint rules).

    The simulator's contract is that a scenario is a pure function of
    its seed: running it twice must produce bit-identical event traces.
    This module runs a trace-producing thunk twice, compares the streams
    event-by-event, and reports either the per-run digests or the first
    divergent event.  Wired into the build as [dune build @replay]. *)

type digest = int64
(** FNV-1a 64 over the rendered records.  Not cryptographic — collisions
    don't matter because outcomes come from the event-by-event
    comparison; digests are only a compact fingerprint to report. *)

val digest_records : Trace.record list -> digest

type summary = {
  events : int;
  digest : digest;  (** over the whole interleaved stream *)
  nodes : (int * digest) list;  (** per-node digests, ascending node id *)
}

type divergence = {
  index : int;  (** position in the interleaved stream *)
  first : Trace.record option;  (** [None] = run 1 ended early *)
  second : Trace.record option;  (** [None] = run 2 ended early *)
}

type outcome = Identical of summary | Diverged of divergence

val run_twice : run:(unit -> Trace.record list) -> outcome
(** [run_twice ~run] invokes [run] twice and compares; [run] must
    rebuild its whole world (engine, rng, cluster) on each call so both
    runs start from the same seed. *)

val pp_outcome : outcome -> string
(** One line when identical; a three-line report naming the first
    divergent event otherwise. *)
