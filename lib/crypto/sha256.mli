(** SHA-256 (FIPS 180-4), implemented from scratch.

    Digests are returned as 32-byte [string]s.  The implementation is
    validated against the official test vectors in the test suite. *)

type ctx

val init : unit -> ctx
val feed : ctx -> string -> unit

val finalize : ctx -> string
(** Returns the 32-byte digest.  The context must not be reused. *)

val digest : string -> string
(** [digest msg] is the 32-byte SHA-256 digest of [msg]. *)

val digest_list : string list -> string
(** Digest of the concatenation of the given chunks. *)

val hex : string -> string
(** Lowercase hexadecimal rendering of a raw digest. *)

(** {2 Test hooks} *)

external compress : int array -> Bytes.t -> int -> unit = "sbft_sha256_compress"
[@@noalloc]
(** [compress h block off] compresses the 64 bytes of [block] at [off]
    into the eight state words [h] (each in the low 32 bits), in place.
    It runs the SHA extensions when the CPU has them, otherwise the
    portable loop.  The caller keeps [off + 64] within [block]: nothing
    is checked. *)

external compress_portable : int array -> Bytes.t -> int -> unit
  = "sbft_sha256_compress_portable"
[@@noalloc]
(** {!compress} through the portable loop on every CPU. *)
