(** Static binary Merkle tree over an ordered list of leaves (paper §IV).

    Used to authenticate the operation list of a decision block: the
    execute-ack sent to a client carries an inclusion proof that its
    operation was executed as the [l]-th operation of block [s] with a
    given result.  Leaf and node hashes are domain-separated to prevent
    second-preimage tricks. *)

type tree

type path = (string * [ `Left | `Right ]) list
(** Sibling hashes from the leaf up; the tag says on which side the
    sibling sits. *)

type proof = { leaf_index : int; path : path }

val build : string list -> tree
(** [build leaves] hashes each leaf and builds the tree.  An empty list
    yields a well-defined empty-tree root. *)

val root : tree -> string

val prove : tree -> int -> proof
(** Inclusion proof for the leaf at the given index.
    @raise Invalid_argument if out of bounds. *)

val encode_proof : proof -> string
(** Canonical wire encoding (paired with {!decode_proof}). *)

val decode_proof : string -> proof option

val write_path : Sbft_wire.Codec.Writer.t -> path -> unit
(** The proof-path codec both Merkle proofs share: a varint-counted
    list of (u8 side, 32-byte sibling hash). *)

val read_path : Sbft_wire.Codec.Reader.t -> path
(** @raise Sbft_wire.Codec.Reader.Truncated on short input. *)

val implied_root : leaf:string -> proof -> string
(** The root a verifier recomputes from [leaf] along the proof path;
    [verify ~root ~leaf p] iff [implied_root ~leaf p = root]. *)

(** {2 Test hooks} *)

val verify : root:string -> leaf:string -> proof -> bool
(** Checks that [leaf] sits at [proof.leaf_index] under [root]. *)
