type t = { config : Config.t; mutable avg_pending : float }

let create config = { config; avg_pending = 0.0 }

let observe_pending t pending =
  (* Exponentially decaying average with factor 1/8 per observation. *)
  t.avg_pending <- (0.875 *. t.avg_pending) +. (0.125 *. float_of_int pending)

(* The paper sets the divisor to half the maximum number of concurrent
   blocks; that number evaluated to 4 in their experiments, i.e. at most
   8 blocks pipeline concurrently. *)
let max_concurrent config = max 1 (min (Config.active_window config) 8)

let batch_size t =
  let divisor = max 1 (max_concurrent t.config / 2) in
  let b = int_of_float (t.avg_pending /. float_of_int divisor) in
  max 1 (min Config.max_batch b)
