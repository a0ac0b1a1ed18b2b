(** Deterministic pseudo-random number generator (SplitMix64).

    Every source of randomness in the simulator flows through a value of
    type {!t} so that a simulation seeded with the same value replays the
    exact same schedule.  Generators are splittable: {!split} derives an
    independent stream, which lets each node or workload own a private
    generator without perturbing the others. *)

type t

(** [create seed] returns a fresh generator. Equal seeds give equal
    streams. *)
val create : int64 -> t

(** [split t] derives an independent generator from [t], advancing [t]. *)
val split : t -> t

(** [int64 t] returns the next raw 64-bit output. *)
val int64 : t -> int64

(** [int t bound] returns a uniform integer in [\[0, bound)].
    @raise Invalid_argument if [bound <= 0]. *)
val int : t -> int -> int

(** [bool t p] returns [true] with probability [p]. *)
val bool : t -> float -> bool

(** [gaussian t] returns a standard-normal sample (Box–Muller). *)
val gaussian : t -> float

(** [shuffle t a] permutes [a] in place (Fisher–Yates). *)
val shuffle : t -> 'a array -> unit

(** [pick t a] returns a uniformly random element of [a].
    @raise Invalid_argument on an empty array. *)
val pick : t -> 'a array -> 'a

(** {2 Test hooks} *)

(** [float t] returns a uniform float in [\[0, 1)]. *)
val float : t -> float

(** [exponential t ~mean] returns an exponentially distributed sample. *)
val exponential : t -> mean:float -> float
