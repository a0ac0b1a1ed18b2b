(* Nodes memoize their Merkle hash.  A node is built with [h = ""]
   ("not hashed yet") and [hash_of] fills it in on first demand, so
   [set]/[remove] only rebuild the path and the next [root] or [prove]
   hashes each node touched since the last one exactly once: a block of
   Puts pays for its shared upper path once, not once per Put.  The
   memo write is idempotent (a node's hash is a function of its
   immutable fields), so sharing nodes between versions or replicas is
   safe on one domain; a tree never leaves the cluster that built it.
   A leaf stores the full key (not only its hash) so [fold] can recover
   bindings.  Leaves live at the shallowest depth where their key-hash
   prefix is unique, like a compressed Patricia trie. *)

type node =
  | Empty
  | Leaf of { khash : string; key : string; value : string; mutable h : string }
  | Branch of { left : node; right : node; mutable h : string }

type t = { node : node; cardinal : int }

let empty_hash = Sha256.digest "sbft-merkle-map-empty"

let unhashed h = String.length h = 0

let rec hash_of = function
  | Empty -> empty_hash
  | Leaf l ->
      if unhashed l.h then
        l.h <- Sha256.digest_list [ "\x02"; l.khash; Sha256.digest l.value ];
      l.h
  | Branch b ->
      if unhashed b.h then
        b.h <- Sha256.digest_list [ "\x03"; hash_of b.left; hash_of b.right ];
      b.h

let leaf ~khash ~key ~value = Leaf { khash; key; value; h = "" }
let branch left right = Branch { left; right; h = "" }

let bit khash i =
  let byte = Char.code khash.[i lsr 3] in
  (byte lsr (7 - (i land 7))) land 1

let empty = { node = Empty; cardinal = 0 }
let cardinal t = t.cardinal
let root t = hash_of t.node

let khash_of_key key = Sha256.digest key

let get t key =
  let kh = khash_of_key key in
  let rec go node depth =
    match node with
    | Empty -> None
    | Leaf l -> if String.equal l.khash kh then Some l.value else None
    | Branch b -> if bit kh depth = 0 then go b.left (depth + 1) else go b.right (depth + 1)
  in
  go t.node 0

(* Split two leaves with distinct key hashes into branches from [depth]
   down to their first diverging bit. *)
let rec split_leaves depth (l1 : node) kh1 (l2 : node) kh2 =
  let b1 = bit kh1 depth and b2 = bit kh2 depth in
  if Int.equal b1 b2 then begin
    let sub = split_leaves (depth + 1) l1 kh1 l2 kh2 in
    if b1 = 0 then branch sub Empty else branch Empty sub
  end
  else if b1 = 0 then branch l1 l2
  else branch l2 l1

let set t ~key ~value =
  let kh = khash_of_key key in
  let added = ref false in
  let rec go node depth =
    match node with
    | Empty ->
        added := true;
        leaf ~khash:kh ~key ~value
    | Leaf l ->
        if String.equal l.khash kh then leaf ~khash:kh ~key ~value
        else begin
          added := true;
          split_leaves depth node l.khash (leaf ~khash:kh ~key ~value) kh
        end
    | Branch b ->
        if bit kh depth = 0 then branch (go b.left (depth + 1)) b.right
        else branch b.left (go b.right (depth + 1))
  in
  let node = go t.node 0 in
  { node; cardinal = (if !added then t.cardinal + 1 else t.cardinal) }

let remove t key =
  let kh = khash_of_key key in
  let removed = ref false in
  (* Collapse single-leaf branches on the way up to restore the
     shallowest-unique-prefix invariant. *)
  let collapse left right =
    match (left, right) with
    | Empty, Empty -> Empty
    | (Leaf _ as l), Empty | Empty, (Leaf _ as l) -> l
    | _ -> branch left right
  in
  let rec go node depth =
    match node with
    | Empty -> Empty
    | Leaf l ->
        if String.equal l.khash kh then begin
          removed := true;
          Empty
        end
        else node
    | Branch b ->
        if bit kh depth = 0 then collapse (go b.left (depth + 1)) b.right
        else collapse b.left (go b.right (depth + 1))
  in
  let node = go t.node 0 in
  if !removed then { node; cardinal = t.cardinal - 1 } else t

let fold f t acc =
  let rec go node acc =
    match node with
    | Empty -> acc
    | Leaf l -> f l.key l.value acc
    | Branch b -> go b.right (go b.left acc)
  in
  go t.node acc

type proof = { siblings : Merkle.path }
(* Sibling hashes from the leaf's parent up to the root, with the side
   the sibling sits on. *)

let prove t key =
  let kh = khash_of_key key in
  let rec go node depth acc =
    match node with
    | Empty -> None
    | Leaf l -> if String.equal l.khash kh then Some acc else None
    | Branch b ->
        if bit kh depth = 0 then go b.left (depth + 1) ((hash_of b.right, `Right) :: acc)
        else go b.right (depth + 1) ((hash_of b.left, `Left) :: acc)
  in
  (* Prepending while descending leaves the deepest sibling at the head,
     i.e. [siblings] is already in leaf-to-root order. *)
  Option.map (fun acc -> { siblings = acc }) (go t.node 0 [])

let implied_root ~key ~value proof =
  let kh = khash_of_key key in
  let leaf_h = Sha256.digest_list [ "\x02"; kh; Sha256.digest value ] in
  List.fold_left
    (fun h (sib, side) ->
      match side with
      | `Right -> Sha256.digest_list [ "\x03"; h; sib ]
      | `Left -> Sha256.digest_list [ "\x03"; sib; h ])
    leaf_h proof.siblings

let verify ~root:expected ~key ~value proof =
  String.equal (implied_root ~key ~value proof) expected

let encode_proof p =
  let w = Sbft_wire.Codec.Writer.create () in
  Merkle.write_path w p.siblings;
  Sbft_wire.Codec.Writer.contents w

let decode_proof s =
  let open Sbft_wire in
  match Merkle.read_path (Codec.Reader.of_string s) with
  | siblings -> Some { siblings }
  | exception Codec.Reader.Truncated -> None
