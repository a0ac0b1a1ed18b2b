(** Execution machine components: the operand stack (max 1024 words) and
    byte-addressed expanding memory. *)

exception Stack_overflow_evm
exception Stack_underflow_evm

module Stack : sig
  type t

  val create : unit -> t
  val push : t -> U256.t -> unit
  val pop : t -> U256.t
  val dup : t -> int -> unit
  (** [dup s n] duplicates the n-th item (1-based, EVM DUPn). *)

  val swap : t -> int -> unit
  (** [swap s n] swaps top with the (n+1)-th item (EVM SWAPn). *)

  (** {2 Test hooks} *)

  val depth : t -> int

  val peek : t -> int -> U256.t
  (** [peek s 0] is the top. *)
end

module Memory : sig
  type t

  val create : unit -> t

  val size_words : t -> int
  (** Current extent in 32-byte words. *)

  val load_word : t -> int -> U256.t
  val store_word : t -> int -> U256.t -> unit
  val store_byte : t -> int -> int -> unit
  val load_slice : t -> offset:int -> len:int -> string
  val store_slice : t -> offset:int -> string -> unit
end
