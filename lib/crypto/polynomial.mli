(** Polynomials over {!Field}, as needed by Shamir secret sharing:
    random polynomial generation, Horner evaluation, and Lagrange
    interpolation at zero. *)

type t
(** Coefficients, lowest degree first. *)

val random : Sbft_sim.Rng.t -> degree:int -> const:Field.t -> t
(** Random polynomial of the given degree with constant term [const]. *)

val eval : t -> Field.t -> Field.t

val lagrange_at_zero : (Field.t * Field.t) list -> Field.t
(** [lagrange_at_zero points] interpolates the unique polynomial through
    [points = (x_i, y_i)] (distinct, nonzero [x_i]) and evaluates it at
    0.  This is the share-combination step of the threshold scheme.
    @raise Invalid_argument on duplicate or zero x-coordinates. *)

val interpolate_at_zero : coeffs:Field.t array -> Field.t array -> Field.t
(** [interpolate_at_zero ~coeffs ys] evaluates [sum_i coeffs_i * ys_i]
    — the cheap half of {!lagrange_at_zero} once the coefficients are
    known.
    @raise Invalid_argument on a length mismatch. *)

(** {2 Test hooks} *)

val of_coeffs : Field.t array -> t

val lagrange_coeffs_at_zero : Field.t array -> Field.t array
(** [lagrange_coeffs_at_zero xs] is the vector [c] of Lagrange basis
    coefficients at zero for abscissae [xs]: the interpolated value at 0
    of any polynomial sampled at [xs] is [sum_i c_i * y_i].  The
    coefficients depend only on the signer set, so combiners that see
    the same set repeatedly can memoize them ({!interpolate_at_zero}
    applies a memoized vector).
    @raise Invalid_argument on duplicate or zero x-coordinates. *)
