(** EVM gas schedule (Byzantium-era constants; see Yellow Paper
    Appendix G for the reference values). *)

val g_sstore_set : int
(** Zero → non-zero. *)

val g_sstore_reset : int
(** Non-zero → any. *)

val g_sha3_word : int
val g_copy_word : int
val g_log_byte : int
val g_call_value : int
val g_code_deposit_byte : int
val g_exp_byte : int

val memory_cost : int -> int
(** [memory_cost words]: total cost of having expanded memory to
    [words] 32-byte words ([3w + w²/512]). *)

val intrinsic : is_create:bool -> data:string -> int
(** Intrinsic transaction gas: base + per-byte data charges. *)

val static_cost : Opcode.t -> int
(** Base cost of an opcode, excluding dynamic components (memory
    expansion, copy sizes, storage transitions, calls). *)
