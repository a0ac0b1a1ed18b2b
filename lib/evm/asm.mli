(** Tiny EVM assembler: instruction lists with symbolic labels are
    assembled into bytecode.  Used to author the benchmark/example
    contracts readably (the paper's workloads run compiled Solidity; we
    hand-assemble equivalent bytecode). *)

type instr =
  | Op of Opcode.t  (** Any non-push opcode. *)
  | Push of U256.t  (** Emitted with the minimal PUSHn width. *)
  | Push_int of int
  | Push_label of string  (** PUSH2 with the label's code offset. *)
  | Label of string  (** Defines a label and emits a JUMPDEST. *)
  | Mark of string  (** Defines a label without emitting anything. *)
  | Raw of string  (** Verbatim bytes. *)

val assemble : instr list -> string
(** @raise Invalid_argument on undefined or duplicate labels. *)

(** {2 Test hooks} *)

val disassemble : string -> string
(** Human-readable listing, for debugging and tests. *)
