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
