open Sbft_crypto
open Sbft_wire

type apply = Merkle_map.t -> string -> Merkle_map.t * string

type block_record = {
  ops : string list;
  outputs : string array;
  ops_tree : Merkle.tree;
  state_root : string; (* after executing this block *)
  block_digest : string;
}

type cache_value = {
  c_map : Merkle_map.t;
  c_record : block_record;
  c_ops_root : string;
}

(* Keyed exactly by (seq, pre-state root, ops): equality compares all
   three, so no two op lists can share an entry.  A digest of the
   concatenated ops lets ["x"] and ["x"; ""] collide — duplicate
   requests degraded to no-ops ("") make such pairs reachable, and the
   hit hands back an outputs array of the wrong length (found by the
   schedule fuzzer, see test/corpus/weak-sigma-agreement.schedule).
   The hash reads only the seq and the 32-byte root, never the op
   payloads, which run to kilobytes per op.  Distinct op lists at one
   (seq, root) are rare, so they share a bucket and the exact equality
   tells them apart; on a hit the string comparison short-circuits on
   the op strings the replicas share physically. *)
module Blocks = Hashtbl.Make (struct
  type t = int * string * string list

  let equal (s1, r1, o1) (s2, r2, o2) =
    Int.equal s1 s2 && String.equal r1 r2 && List.equal String.equal o1 o2

  let hash (seq, root, _) = Hashtbl.hash root + (seq * 1_000_003)
end)

(* The execution charge of a block, keyed exactly by (seq, the requests'
   op strings).  The hash reads the seq and the op lengths, never the
   payload bytes; equality compares the strings, which short-circuits
   on the ones the replicas share physically. *)
module Charges = Hashtbl.Make (struct
  type t = int * string list

  let equal (s1, o1) (s2, o2) = Int.equal s1 s2 && List.equal String.equal o1 o2

  let hash (seq, ops) =
    List.fold_left (fun h op -> (h * 31) + String.length op) (seq * 1_000_003) ops
end)

(* Every entry is made by one store and taken by the [takers - 1]
   others; the last take removes it, and [gc_below] drops what a
   crashed or lagging store never takes.  A store that misses an entry
   executes the block itself, with identical outputs and charge. *)
type 'a entry = { value : 'a; mutable left : int }

type cache = {
  blocks : cache_value entry Blocks.t;
  charges : int entry Charges.t;
  takers : int;
}

let new_cache ?(takers = max_int) () =
  { blocks = Blocks.create 1024; charges = Charges.create 1024; takers }

(* One taker fewer; the last one removes the entry. *)
let take ~find ~remove tbl key =
  match find tbl key with
  | None -> None
  | Some e ->
      e.left <- e.left - 1;
      if e.left <= 0 then remove tbl key;
      Some e.value

let put ~replace cache tbl key value =
  if cache.takers > 1 then replace tbl key { value; left = cache.takers - 1 }

type t = {
  apply : apply;
  mutable map : Merkle_map.t;
  mutable last_executed : int;
  mutable last_ops_root : string;
  blocks : (int, block_record) Hashtbl.t;
  mutable cache : cache option;
}

let digest_tag = "sbft-state-digest-v1"

let compute_digest ~seq ~state_root ~ops_root =
  let w = Codec.Writer.create () in
  Codec.Writer.raw w digest_tag;
  Codec.Writer.u64 w seq;
  Codec.Writer.raw w state_root;
  Codec.Writer.raw w ops_root;
  Sha256.digest (Codec.Writer.contents w)

let genesis_ops_root = Sha256.digest "sbft-genesis-ops"

let create ~apply () =
  {
    apply;
    map = Merkle_map.empty;
    last_executed = 0;
    last_ops_root = genesis_ops_root;
    blocks = Hashtbl.create 64;
    cache = None;
  }

let set_cache t cache = t.cache <- Some cache

let clone t =
  {
    apply = t.apply;
    map = t.map;
    last_executed = t.last_executed;
    last_ops_root = t.last_ops_root;
    blocks = Hashtbl.copy t.blocks;
    cache = t.cache;
  }

let exec_charge t ~seq ~ops compute =
  match t.cache with
  | None -> compute ()
  | Some cache -> (
      let key = (seq, ops) in
      match take ~find:Charges.find_opt ~remove:Charges.remove cache.charges key with
      | Some c -> c
      | None ->
          let c = compute () in
          put ~replace:Charges.replace cache cache.charges key c;
          c)

let last_executed t = t.last_executed
let state t = t.map

let bootstrap t ~ops =
  if t.last_executed <> 0 then
    invalid_arg "Auth_store.bootstrap: blocks already executed";
  List.iter
    (fun op ->
      let map', _ = t.apply t.map op in
      t.map <- map')
    ops

(* Leaf committed into the per-block operation tree: binds the position,
   the operation and its output. *)
let op_leaf ~index ~op ~value =
  let w = Codec.Writer.create () in
  Codec.Writer.u32 w index;
  Codec.Writer.raw w (Sha256.digest op);
  Codec.Writer.raw w (Sha256.digest value);
  Codec.Writer.contents w

let execute_uncached t ~seq ~ops =
  let outputs =
    List.map
      (fun op ->
        let map', out = t.apply t.map op in
        t.map <- map';
        out)
      ops
  in
  let leaves = List.mapi (fun index (op, value) -> op_leaf ~index ~op ~value)
      (List.combine ops outputs)
  in
  let ops_tree = Merkle.build leaves in
  let state_root = Merkle_map.root t.map in
  let ops_root = Merkle.root ops_tree in
  let block_digest = compute_digest ~seq ~state_root ~ops_root in
  let record =
    { ops; outputs = Array.of_list outputs; ops_tree; state_root; block_digest }
  in
  Hashtbl.replace t.blocks seq record;
  t.last_executed <- seq;
  t.last_ops_root <- ops_root;
  record

let execute_block t ~seq ~ops =
  if seq <> t.last_executed + 1 then
    invalid_arg
      (Printf.sprintf "Auth_store.execute_block: seq %d but last executed %d" seq
         t.last_executed);
  match t.cache with
  | None -> Array.to_list (execute_uncached t ~seq ~ops).outputs
  | Some cache -> (
      let key = (seq, Merkle_map.root t.map, ops) in
      match take ~find:Blocks.find_opt ~remove:Blocks.remove cache.blocks key with
      | Some v ->
          t.map <- v.c_map;
          Hashtbl.replace t.blocks seq v.c_record;
          t.last_executed <- seq;
          t.last_ops_root <- v.c_ops_root;
          Array.to_list v.c_record.outputs
      | None ->
          let record = execute_uncached t ~seq ~ops in
          put ~replace:Blocks.replace cache cache.blocks key
            { c_map = t.map; c_record = record; c_ops_root = t.last_ops_root };
          Array.to_list record.outputs)

let digest t =
  compute_digest ~seq:t.last_executed ~state_root:(Merkle_map.root t.map)
    ~ops_root:t.last_ops_root

let digest_at t ~seq =
  if seq = t.last_executed then Some (digest t)
  else
    Option.map (fun b -> b.block_digest) (Hashtbl.find_opt t.blocks seq)

let output_at t ~seq ~index =
  match Hashtbl.find_opt t.blocks seq with
  | Some b when index >= 0 && index < Array.length b.outputs -> Some b.outputs.(index)
  | _ -> None

let ops_at t ~seq = Option.map (fun b -> b.ops) (Hashtbl.find_opt t.blocks seq)

let prove_op t ~seq ~index =
  match Hashtbl.find_opt t.blocks seq with
  | Some b when index >= 0 && index < Array.length b.outputs ->
      let mproof = Merkle.prove b.ops_tree index in
      let w = Codec.Writer.create () in
      Codec.Writer.u8 w 1;
      Codec.Writer.raw w b.state_root;
      Codec.Writer.str w (Merkle.encode_proof mproof);
      Some (Codec.Writer.contents w)
  | _ -> None

let prove_query t ~key =
  match Merkle_map.get t.map key with
  | None -> None
  | Some value -> (
      match Merkle_map.prove t.map key with
      | None -> None
      | Some mp ->
          let w = Codec.Writer.create () in
          Codec.Writer.u8 w 2;
          Codec.Writer.raw w t.last_ops_root;
          Codec.Writer.str w (Merkle_map.encode_proof mp);
          Some (value, Codec.Writer.contents w))

let verify_op_proof ~digest ~seq ~index ~op ~value ~proof =
  match
    let r = Codec.Reader.of_string proof in
    if Codec.Reader.u8 r <> 1 then None
    else begin
      let state_root = Codec.Reader.raw r 32 in
      match Merkle.decode_proof (Codec.Reader.str r) with
      | None -> None
      | Some mp -> Some (state_root, mp)
    end
  with
  | exception Codec.Reader.Truncated -> false
  | None -> false
  | Some (state_root, mp) ->
      (* The leaf binds (index, op, value); recomputing the digest from
         the ops root implied by the proof path pins all of them to the
         signed digest. *)
      let leaf = op_leaf ~index ~op ~value in
      let implied_ops_root = Merkle.implied_root ~leaf mp in
      String.equal digest (compute_digest ~seq ~state_root ~ops_root:implied_ops_root)

let verify_query_proof ~digest ~seq ~key ~value ~proof =
  match
    let r = Codec.Reader.of_string proof in
    if Codec.Reader.u8 r <> 2 then None
    else begin
      let ops_root = Codec.Reader.raw r 32 in
      match Merkle_map.decode_proof (Codec.Reader.str r) with
      | None -> None
      | Some mp -> Some (ops_root, mp)
    end
  with
  | exception Codec.Reader.Truncated -> false
  | None -> false
  | Some (ops_root, mp) ->
      let implied_state_root = Merkle_map.implied_root ~key ~value mp in
      String.equal digest
        (compute_digest ~seq ~state_root:implied_state_root ~ops_root)

let gc_below t ~seq =
  let stale =
    Hashtbl.fold (fun s _ acc -> if s < seq then s :: acc else acc) t.blocks []
    |> List.sort Int.compare
  in
  List.iter (Hashtbl.remove t.blocks) stale;
  match t.cache with
  | None -> ()
  | Some cache ->
      let live s e = if s < seq then None else Some e in
      Blocks.filter_map_inplace (fun (s, _, _) e -> live s e) cache.blocks;
      Charges.filter_map_inplace (fun (s, _) e -> live s e) cache.charges

let snapshot_of ~last_executed ~last_ops_root map =
  let w = Codec.Writer.create () in
  Codec.Writer.raw w "SNAP";
  Codec.Writer.u64 w last_executed;
  Codec.Writer.raw w last_ops_root;
  Codec.Writer.u32 w (Merkle_map.cardinal map);
  Merkle_map.fold
    (fun key value () ->
      Codec.Writer.str w key;
      Codec.Writer.str w value)
    map ();
  Codec.Writer.contents w

let snapshot t =
  snapshot_of ~last_executed:t.last_executed ~last_ops_root:t.last_ops_root t.map

let delayed_snapshot t =
  let last_executed = t.last_executed
  and last_ops_root = t.last_ops_root
  and map = t.map in
  lazy (snapshot_of ~last_executed ~last_ops_root map)

(* Parse a snapshot into scratch values without touching [t]. *)
let parse_snapshot s =
  match
    let r = Codec.Reader.of_string s in
    if Codec.Reader.raw r 4 <> "SNAP" then Error "bad magic"
    else begin
      let seq = Codec.Reader.u64 r in
      let ops_root = Codec.Reader.raw r 32 in
      let n = Codec.Reader.u32 r in
      let map = ref Merkle_map.empty in
      for _ = 1 to n do
        let key = Codec.Reader.str r in
        let value = Codec.Reader.str r in
        map := Merkle_map.set !map ~key ~value
      done;
      Ok (seq, ops_root, !map)
    end
  with
  | exception Codec.Reader.Truncated -> Error "truncated snapshot"
  | v -> v

let install t (seq, ops_root, map) =
  t.map <- map;
  t.last_executed <- seq;
  t.last_ops_root <- ops_root;
  Hashtbl.reset t.blocks

let load_snapshot t s =
  Result.map (install t) (parse_snapshot s)

let load_snapshot_checked t s ~expect =
  match parse_snapshot s with
  | Error _ as e -> e
  | Ok ((seq, ops_root, map) as staged) ->
      let d =
        compute_digest ~seq ~state_root:(Merkle_map.root map) ~ops_root
      in
      if String.equal d expect then Ok (install t staged)
      else Error "snapshot digest mismatch"

let snapshot_digest_info s =
  match
    let r = Codec.Reader.of_string s in
    if Codec.Reader.raw r 4 <> "SNAP" then None
    else begin
      let seq = Codec.Reader.u64 r in
      let ops_root = Codec.Reader.raw r 32 in
      Some (seq, ops_root)
    end
  with
  | exception Codec.Reader.Truncated -> None
  | v -> v
