(** 256-bit machine words for the EVM, implemented over four [int64]
    limbs (no external bignum dependency).

    All arithmetic is modulo 2^256 as the EVM specifies; "signed"
    variants interpret words as two's complement.  Conversions to and
    from 32-byte big-endian strings match the EVM's memory/storage
    representation. *)

type t

val zero : t
val one : t

val of_int : int -> t
(** @raise Invalid_argument on negative input. *)

val to_int_clamped : t -> int
(** Like {!to_int_opt} but saturates at [max_int] (useful for gas/size
    arguments where anything huge means "out of range anyway"). *)

val of_bytes_be : string -> t
(** Big-endian; shorter strings are left-padded with zeros.
    @raise Invalid_argument when longer than 32 bytes. *)

val to_bytes_be : t -> string
(** Always 32 bytes. *)

(** {2 Arithmetic (mod 2^256)} *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t

val div : t -> t -> t
(** Unsigned; division by zero yields zero (EVM semantics). *)

val rem : t -> t -> t
val sdiv : t -> t -> t
val srem : t -> t -> t
val addmod : t -> t -> t -> t
val mulmod : t -> t -> t -> t
val exp : t -> t -> t

(** {2 Bitwise} *)

val logand : t -> t -> t
val logor : t -> t -> t
val logxor : t -> t -> t
val lognot : t -> t
val shift_left : t -> int -> t
val shift_right : t -> int -> t
(** Logical. Shifts ≥ 256 yield zero. *)

val shift_right_arith : t -> int -> t
val byte : int -> t -> t
(** [byte i x]: the [i]-th byte of [x] counting from the most
    significant (EVM [BYTE]); [i >= 32] yields zero. *)

val sign_extend : int -> t -> t
(** [sign_extend b x]: extend from byte [b] (0 = least significant). *)

(** {2 Comparison} *)

val equal : t -> t -> bool

val lt : t -> t -> bool
val gt : t -> t -> bool
val slt : t -> t -> bool
val sgt : t -> t -> bool
val is_zero : t -> bool

val bits : t -> int
(** Position of the highest set bit + 1; 0 for zero. *)

(** {2 Test hooks} *)

val max_value : t

val to_int_opt : t -> int option
(** [Some] when the value fits a non-negative OCaml [int]. *)

val of_hex : string -> t
(** Accepts an optional ["0x"] prefix. *)

val to_hex : t -> string
(** Minimal-length lowercase hex with ["0x"] prefix. *)

val neg : t -> t

val is_negative : t -> bool
(** Two's-complement sign bit. *)
