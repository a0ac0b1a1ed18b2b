(** Per-party public-key signatures (simulation stand-in for RSA-2048).

    The paper signs client requests and server messages with RSA-2048
    (following "Making BFT systems tolerate Byzantine faults" [31]).
    Here a party's signature is an HMAC under its private key and the
    "public key" is an opaque handle that verifies it; within the
    simulation nobody can produce a signature for a party whose keypair
    they do not hold, which is the property the protocol needs.  Wire
    sizes and CPU costs are charged at RSA-2048 rates via
    {!Cost_model}. *)

type keypair
type public_key
type signature = string

val generate : Sbft_sim.Rng.t -> id:int -> keypair
val public_key : keypair -> public_key

val sign : keypair -> string -> signature
val verify : public_key -> string -> signature -> bool

val signature_size : int
(** 256 bytes (RSA-2048). *)

(** {2 Test hooks} *)

val key_id : public_key -> int
