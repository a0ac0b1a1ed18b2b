let rec apply_op map (op : Kv_op.t) =
  match op with
  | Put { key; value } -> (Sbft_crypto.Merkle_map.set map ~key ~value, "ok")
  | Get { key } -> (map, Option.value ~default:"" (Sbft_crypto.Merkle_map.get map key))
  | Add { key; delta } ->
      let current =
        match Sbft_crypto.Merkle_map.get map key with
        | Some v -> Option.value ~default:0 (int_of_string_opt v)
        | None -> 0
      in
      let value = string_of_int (current + delta) in
      (Sbft_crypto.Merkle_map.set map ~key ~value, value)
  | Batch ops ->
      let map =
        List.fold_left (fun map op -> fst (apply_op map op)) map ops
      in
      (map, "ok")
  | Noop -> (map, "")

let apply map op =
  match Kv_op.decode op with
  | Some op -> apply_op map op
  | None -> (map, "")

let create () = Auth_store.create ~apply ()

let put ~key ~value = Kv_op.encode (Put { key; value })
let get ~key = Kv_op.encode (Get { key })
let add ~key ~delta = Kv_op.encode (Add { key; delta })

let read map ~key = Sbft_crypto.Merkle_map.get map key
