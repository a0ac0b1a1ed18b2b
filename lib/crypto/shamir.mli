(** Shamir secret sharing over {!Field}.

    A dealer splits a secret into [n] shares so that any [k] reconstruct
    it and fewer than [k] reveal nothing.  Share [i] (1-based signer
    index) is the evaluation of a random degree-(k−1) polynomial at
    [x = i]. *)

type share = { index : int; value : Field.t }

val deal :
  Sbft_sim.Rng.t -> secret:Field.t -> threshold:int -> num_shares:int ->
  share array
(** @raise Invalid_argument unless [1 <= threshold <= num_shares]. *)

(** {2 Test hooks} *)

val reconstruct : share list -> Field.t
(** Interpolates the secret from any [>= threshold] distinct shares; with
    fewer shares the result is garbage (by design).
    @raise Invalid_argument on duplicate share indices. *)
