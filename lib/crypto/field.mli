(** Arithmetic in GF(p) for the Mersenne prime p = 2^61 − 1.

    This field underlies the simulated threshold-signature schemes: it
    supports the same Shamir sharing and Lagrange
    interpolation-in-the-exponent structure as BLS threshold signatures,
    with branch-light reduction thanks to the Mersenne form.  Elements
    are native ints in [\[0, p)]: p fits in OCaml's 63-bit int with two
    bits to spare, so no operation allocates. *)

type t = private int

val p : int64
(** 2^61 − 1 = 2305843009213693951. *)

val zero : t
val one : t

val of_int64 : int64 -> t
(** Reduces an arbitrary non-negative int64 into the field. *)

val of_int : int -> t
val to_int64 : t -> int64

val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t
val mul : t -> t -> t
val pow : t -> int64 -> t
(** [pow b e] is [b^e] with [e] read as an unsigned 64-bit integer. *)

val inv : t -> t
(** @raise Division_by_zero on [inv zero]. *)

val equal : t -> t -> bool

val random : Sbft_sim.Rng.t -> t
(** Uniform field element. *)

val of_digest : string -> t
(** Maps a hash digest (≥ 8 bytes) to a {e nonzero} field element; used
    as the "hash-to-group" step of the simulated signature scheme. *)

val to_bytes : t -> string
(** 8-byte big-endian encoding. *)

val of_bytes : string -> t

val pp : Format.formatter -> t -> unit
