(** Minimal binary codec: length-prefixed strings, varints, lists.

    Used for (a) hashing protocol messages (the [h = H(s‖v‖r)] digests
    must be computed over a canonical byte encoding), (b) realistic
    message-size accounting in the network model, and (c) snapshot
    serialization for state transfer. *)

module Writer : sig
  type t

  val create : ?size:int -> unit -> t
  (** [size] is the initial capacity in bytes (default 64); the writer
      grows past it as needed. *)

  val u8 : t -> int -> unit
  val u32 : t -> int -> unit
  val u64 : t -> int -> unit
  val varint : t -> int -> unit
  val str : t -> string -> unit
  (** Varint length prefix followed by the bytes. *)

  val raw : t -> string -> unit
  (** Bytes with no length prefix. *)

  val list : t -> ('a -> unit) -> 'a list -> unit
  (** Varint count followed by each element (caller writes elements
      through the provided function). *)

  val contents : t -> string
  val length : t -> int

  val blit : t -> bytes -> pos:int -> unit
  (** Copy everything written so far into [bytes] at [pos]. *)
end

module Reader : sig
  type t

  exception Truncated
  (** Raised on reading past the end, and on a varint longer than 9
      bytes or decoding to a negative value. *)

  val of_string : string -> t
  val u8 : t -> int
  val u32 : t -> int
  val u64 : t -> int
  val varint : t -> int
  val str : t -> string

  val skip_str : t -> unit
  (** Step over a {!str} without copying it; raises [Truncated] exactly
      where {!str} would. *)

  val raw : t -> int -> string
  val list : t -> (t -> 'a) -> 'a list
  val at_end : t -> bool
end
