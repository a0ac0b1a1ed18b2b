open Sbft_wire

type t =
  | Create of { sender : string; value : U256.t; init_code : string; gas : int }
  | Call of { sender : string; to_ : string; value : U256.t; data : string; gas : int }
  | Faucet of { account : string; amount : U256.t }
  | Chunk of t list

let rec write w tx =
  match tx with
  | Create { sender; value; init_code; gas } ->
      Codec.Writer.u8 w 1;
      Codec.Writer.raw w sender;
      Codec.Writer.raw w (U256.to_bytes_be value);
      Codec.Writer.str w init_code;
      Codec.Writer.u64 w gas
  | Call { sender; to_; value; data; gas } ->
      Codec.Writer.u8 w 2;
      Codec.Writer.raw w sender;
      Codec.Writer.raw w to_;
      Codec.Writer.raw w (U256.to_bytes_be value);
      Codec.Writer.str w data;
      Codec.Writer.u64 w gas
  | Faucet { account; amount } ->
      Codec.Writer.u8 w 3;
      Codec.Writer.raw w account;
      Codec.Writer.raw w (U256.to_bytes_be amount)
  | Chunk txs ->
      Codec.Writer.u8 w 4;
      Codec.Writer.list w (write w) txs

let encode tx =
  let w = Codec.Writer.create () in
  write w tx;
  Codec.Writer.contents w

let rec read r =
  match Codec.Reader.u8 r with
    | 1 ->
        let sender = Codec.Reader.raw r 20 in
        let value = U256.of_bytes_be (Codec.Reader.raw r 32) in
        let init_code = Codec.Reader.str r in
        let gas = Codec.Reader.u64 r in
        Some (Create { sender; value; init_code; gas })
    | 2 ->
        let sender = Codec.Reader.raw r 20 in
        let to_ = Codec.Reader.raw r 20 in
        let value = U256.of_bytes_be (Codec.Reader.raw r 32) in
        let data = Codec.Reader.str r in
        let gas = Codec.Reader.u64 r in
        Some (Call { sender; to_; value; data; gas })
    | 3 ->
        let account = Codec.Reader.raw r 20 in
        let amount = U256.of_bytes_be (Codec.Reader.raw r 32) in
        Some (Faucet { account; amount })
    | 4 ->
        let txs = Codec.Reader.list r read in
        if List.exists Option.is_none txs then None
        else Some (Chunk (List.filter_map Fun.id txs))
    | _ -> None

let decode s =
  match read (Codec.Reader.of_string s) with
  | v -> v
  | exception Codec.Reader.Truncated -> None

let rec count = function
  | Create _ | Call _ | Faucet _ -> 1
  | Chunk txs -> List.fold_left (fun acc tx -> acc + count tx) 0 txs

type receipt = { ok : bool; gas_used : int; output : string }

let encode_receipt rc =
  let w = Codec.Writer.create () in
  Codec.Writer.u8 w (if rc.ok then 1 else 0);
  Codec.Writer.u64 w rc.gas_used;
  Codec.Writer.str w rc.output;
  Codec.Writer.contents w

let decode_receipt s =
  match
    let r = Codec.Reader.of_string s in
    let ok = Codec.Reader.u8 r = 1 in
    let gas_used = Codec.Reader.u64 r in
    let output = Codec.Reader.str r in
    Some { ok; gas_used; output }
  with
  | v -> v
  | exception Codec.Reader.Truncated -> None
