(** EVM bytecode interpreter.

    Executes contract code against a {!State.t}, with Yellow-Paper gas
    accounting for the implemented instruction subset.  State is
    persistent, so reverts are O(1) (the caller keeps the pre-call
    map). *)

type context = {
  block_number : int;
  timestamp : int;
  origin : string;  (** 20-byte transaction origin *)
  gas_price : U256.t;
}

val default_context : context

type log = { address : string; topics : U256.t list; data : string }

type result = {
  state : State.t;  (** post-state; equals the pre-state on failure/revert *)
  success : bool;
  output : string;  (** RETURN / REVERT payload *)
  gas_used : int;
  logs : log list;
  reverted : bool;  (** [true] when halted by REVERT (vs. an error) *)
  error : string option;
}

val call :
  ctx:context -> state:State.t -> caller:string -> address:string ->
  value:U256.t -> data:string -> gas:int -> result
(** Message call to [address]: transfers [value] then runs its code. *)

val create :
  ctx:context -> state:State.t -> caller:string -> value:U256.t ->
  init_code:string -> gas:int -> result * string
(** Contract creation: runs [init_code]; its RETURN payload becomes the
    new account's code.  Also returns the created address (meaningful
    only on success). *)

(** {2 Test hooks} *)

val execute_code :
  ctx:context -> state:State.t -> caller:string -> address:string ->
  value:U256.t -> data:string -> gas:int -> code:string -> result
(** Runs explicit [code] in [address]'s storage context (used for tests
    and for the paper's single-machine execution baseline). *)
