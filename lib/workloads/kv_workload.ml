open Sbft_store

let batch_size = 64
let key_space = 10_000

(* Deterministic pseudo-random keys/values from the (client, index)
   coordinates keep workload generation reproducible without threading
   generator state through the benchmark harness. *)
let mix client i j =
  let h = Sbft_crypto.Sha256.digest (Printf.sprintf "kv-%d-%d-%d" client i j) in
  Char.code h.[0] lor (Char.code h.[1] lsl 8) lor (Char.code h.[2] lsl 16)

let key client i j = Printf.sprintf "key-%06d" (mix client i j mod key_space)
let value client i j = Printf.sprintf "value-%010d" (mix client (i + 7) (j + 13))

let single_op ~client i =
  Kv_op.encode (Kv_op.Put { key = key client i 0; value = value client i 0 })

let batch_op ~client i =
  Kv_op.encode
    (Kv_op.Batch
       (List.init batch_size (fun j ->
            Kv_op.Put { key = key client i j; value = value client i j })))

let make_op ~batching ~client i =
  if batching then batch_op ~client i else single_op ~client i

let ops_per_request ~batching = if batching then batch_size else 1

let service = Sbft_core.Cluster.kv_service
