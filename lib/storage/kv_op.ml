open Sbft_wire

type t =
  | Put of { key : string; value : string }
  | Get of { key : string }
  | Add of { key : string; delta : int }
  | Batch of t list
  | Noop

let rec write w op =
  match op with
  | Put { key; value } ->
      Codec.Writer.u8 w 1;
      Codec.Writer.str w key;
      Codec.Writer.str w value
  | Get { key } ->
      Codec.Writer.u8 w 2;
      Codec.Writer.str w key
  | Add { key; delta } ->
      Codec.Writer.u8 w 4;
      Codec.Writer.str w key;
      Codec.Writer.u64 w delta
  | Batch ops ->
      Codec.Writer.u8 w 3;
      Codec.Writer.list w (write w) ops
  | Noop -> Codec.Writer.u8 w 0

let encode op =
  let w = Codec.Writer.create () in
  write w op;
  Codec.Writer.contents w

let rec read r =
  match Codec.Reader.u8 r with
  | 1 ->
      let key = Codec.Reader.str r in
      let value = Codec.Reader.str r in
      Some (Put { key; value })
  | 2 -> Some (Get { key = Codec.Reader.str r })
  | 4 ->
      let key = Codec.Reader.str r in
      let delta = Codec.Reader.u64 r in
      Some (Add { key; delta })
  | 3 ->
      let ops = Codec.Reader.list r read in
      if List.exists Option.is_none ops then None
      else Some (Batch (List.filter_map Fun.id ops))
  | 0 -> Some Noop
  | _ -> None

let decode s =
  match read (Codec.Reader.of_string s) with
  | v -> v
  | exception Codec.Reader.Truncated -> None

(* [read] tag for tag, stepping over strings instead of copying them.
   An unknown tag yields -1; [read] would keep reading a batch's later
   elements, but its result is [None] whatever they hold. *)
let count_encoded s =
  let r = Codec.Reader.of_string s in
  let rec go () =
    match Codec.Reader.u8 r with
    | 1 ->
        Codec.Reader.skip_str r;
        Codec.Reader.skip_str r;
        1
    | 2 ->
        Codec.Reader.skip_str r;
        1
    | 4 ->
        Codec.Reader.skip_str r;
        ignore (Codec.Reader.u64 r : int);
        1
    | 3 ->
        let rec elems k acc =
          if k = 0 then acc
          else
            let c = go () in
            if c < 0 then c else elems (k - 1) (acc + c)
        in
        elems (Codec.Reader.varint r) 0
    | 0 -> 1
    | _ -> -1
  in
  match go () with
  | c -> if c < 0 then None else Some c
  | exception Codec.Reader.Truncated -> None

let rec pp fmt = function
  | Put { key; value } -> Format.fprintf fmt "put(%s=%s)" key value
  | Get { key } -> Format.fprintf fmt "get(%s)" key
  | Add { key; delta } -> Format.fprintf fmt "add(%s+=%d)" key delta
  | Batch ops ->
      Format.fprintf fmt "batch[%a]"
        (Format.pp_print_list ~pp_sep:(fun f () -> Format.fprintf f "; ") pp)
        ops
  | Noop -> Format.fprintf fmt "noop"
