open Sbft_crypto

type t = Merkle_map.t

let address_of_hex s =
  let s = if String.length s >= 2 && String.sub s 0 2 = "0x" then String.sub s 2 (String.length s - 2) else s in
  if String.length s <> 40 then invalid_arg "State.address_of_hex: want 40 hex digits";
  String.init 20 (fun i -> Char.chr (int_of_string ("0x" ^ String.sub s (2 * i) 2)))

let contract_address ~sender ~nonce =
  let preimage = sender ^ Printf.sprintf "%016x" nonce in
  String.sub (Keccak.digest preimage) 12 20

let balance_key addr = "b" ^ addr
let nonce_key addr = "n" ^ addr
let code_key addr = "c" ^ addr
let storage_key addr slot = "s" ^ addr ^ U256.to_bytes_be slot

let balance t addr =
  match Merkle_map.get t (balance_key addr) with
  | Some v -> U256.of_bytes_be v
  | None -> U256.zero

let set_balance t addr v =
  if U256.is_zero v then Merkle_map.remove t (balance_key addr)
  else Merkle_map.set t ~key:(balance_key addr) ~value:(U256.to_bytes_be v)

let add_balance t addr v = set_balance t addr (U256.add (balance t addr) v)

let transfer t ~from_ ~to_ v =
  if U256.is_zero v then Some t
  else begin
    let b = balance t from_ in
    if U256.lt b v then None
    else begin
      let t = set_balance t from_ (U256.sub b v) in
      Some (add_balance t to_ v)
    end
  end

let nonce t addr =
  match Merkle_map.get t (nonce_key addr) with
  | Some v -> int_of_string v
  | None -> 0

let incr_nonce t addr =
  Merkle_map.set t ~key:(nonce_key addr) ~value:(string_of_int (nonce t addr + 1))

let code t addr = Option.value ~default:"" (Merkle_map.get t (code_key addr))

let set_code t addr c = Merkle_map.set t ~key:(code_key addr) ~value:c

let sload t ~addr ~slot =
  match Merkle_map.get t (storage_key addr slot) with
  | Some v -> U256.of_bytes_be v
  | None -> U256.zero

let sstore t ~addr ~slot v =
  let key = storage_key addr slot in
  if U256.is_zero v then Merkle_map.remove t key
  else Merkle_map.set t ~key ~value:(U256.to_bytes_be v)

let account_exists t addr =
  Merkle_map.get t (balance_key addr) <> None
  || Merkle_map.get t (nonce_key addr) <> None
  || Merkle_map.get t (code_key addr) <> None
