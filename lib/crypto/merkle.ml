(* Leaf hash:  H(0x00 || leaf); interior: H(0x01 || left || right).
   Odd nodes at a level are promoted unchanged (Bitcoin-style duplication
   would allow mutation attacks; promotion is proof-friendly and safe
   with domain separation). *)

type tree = { levels : string array array; leaves : int }
(* levels.(0) = leaf hashes; last level = [| root |]. *)

type path = (string * [ `Left | `Right ]) list
type proof = { leaf_index : int; path : path }

let leaf_hash data = Sha256.digest_list [ "\x00"; data ]
let node_hash l r = Sha256.digest_list [ "\x01"; l; r ]

let empty_root = Sha256.digest "sbft-merkle-empty"

let build leaves =
  match leaves with
  | [] -> { levels = [| [| empty_root |] |]; leaves = 0 }
  | _ ->
      let level0 = Array.of_list (List.map leaf_hash leaves) in
      let rec up acc level =
        if Array.length level <= 1 then List.rev (level :: acc)
        else begin
          let n = Array.length level in
          let parents = Array.make ((n + 1) / 2) "" in
          for i = 0 to (n / 2) - 1 do
            parents.(i) <- node_hash level.(2 * i) level.((2 * i) + 1)
          done;
          if n mod 2 = 1 then parents.(n / 2) <- level.(n - 1);
          up (level :: acc) parents
        end
      in
      { levels = Array.of_list (up [] level0); leaves = List.length leaves }

let root t = t.levels.(Array.length t.levels - 1).(0)
let prove t index =
  if index < 0 || index >= t.leaves then invalid_arg "Merkle.prove: index out of bounds";
  let path = ref [] in
  let i = ref index in
  for lvl = 0 to Array.length t.levels - 2 do
    let level = t.levels.(lvl) in
    let n = Array.length level in
    let sibling = if !i mod 2 = 0 then !i + 1 else !i - 1 in
    if sibling < n then begin
      let side = if sibling > !i then `Right else `Left in
      path := (level.(sibling), side) :: !path
    end;
    (* Odd last node is promoted: no sibling recorded at this level. *)
    i := !i / 2
  done;
  { leaf_index = index; path = List.rev !path }

let implied_root ~leaf proof =
  List.fold_left
    (fun h (sib, side) ->
      match side with `Right -> node_hash h sib | `Left -> node_hash sib h)
    (leaf_hash leaf) proof.path

let verify ~root:expected ~leaf proof =
  String.equal (implied_root ~leaf proof) expected

let write_path w path =
  let open Sbft_wire in
  Codec.Writer.list w
    (fun (h, side) ->
      Codec.Writer.u8 w (match side with `Left -> 0 | `Right -> 1);
      Codec.Writer.raw w h)
    path

let read_path r =
  let open Sbft_wire in
  Codec.Reader.list r (fun r ->
      let side = if Codec.Reader.u8 r = 0 then `Left else `Right in
      let h = Codec.Reader.raw r 32 in
      (h, side))

let encode_proof p =
  let open Sbft_wire in
  let w = Codec.Writer.create () in
  Codec.Writer.u32 w p.leaf_index;
  write_path w p.path;
  Codec.Writer.contents w

let decode_proof s =
  let open Sbft_wire in
  match
    let r = Codec.Reader.of_string s in
    let leaf_index = Codec.Reader.u32 r in
    { leaf_index; path = read_path r }
  with
  | p -> Some p
  | exception Codec.Reader.Truncated -> None
