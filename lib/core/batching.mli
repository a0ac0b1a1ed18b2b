(** Adaptive batch sizing (§V-C, §VIII): the batch size tracks the
    average number of pending requests divided by half the maximum
    number of concurrently outstanding blocks, clamped to
    between 1 and {!Config.max_batch}.  A decaying average smooths bursts. *)

type t

val create : Config.t -> t

val observe_pending : t -> int -> unit
(** Feed the current pending-queue length (call on every arrival or
    proposal tick). *)

val batch_size : t -> int
(** Current target operations per decision block. *)

val max_concurrent : Config.t -> int
(** Number of blocks the primary keeps in flight (the paper's
    [active-window]). *)
