(** Keccak-256 as used by Ethereum (original Keccak padding [0x01], not
    the NIST SHA3 padding [0x06]).

    The EVM's [SHA3] opcode, contract addresses and storage layouts all
    use this hash.  Validated against known Ethereum vectors (e.g.
    [keccak256("") = c5d2460186f7...]). *)

val digest : string -> string
(** 32-byte Keccak-256 digest. *)
