(* Host cost per call of the crypto substrate at the paper's parameters,
   so that handler self time can be split between crypto and protocol
   logic until the program carries spans of its own. *)

open Sbft_crypto

(* Median over five batches of the mean host microseconds per call; the
   batch size doubles until one batch takes at least 10 ms. *)
let us_per_call f =
  let batch iters =
    let t0 = Span.now_ns () in
    for _ = 1 to iters do
      ignore (Sys.opaque_identity (f ()))
    done;
    Span.now_ns () - t0
  in
  let rec calibrate iters = if batch iters >= 10_000_000 then iters else calibrate (iters * 2) in
  let iters = calibrate 1 in
  let samples =
    Array.init 5 (fun _ -> float_of_int (batch iters) /. float_of_int iters /. 1e3)
  in
  Array.sort compare samples;
  samples.(2)

let measure ~request =
  let n = 193 in
  let rng = Sbft_sim.Rng.create 7L in
  let msg = Sha256.digest "perfbench-block" in
  (* A k-of-n scheme and k valid shares on [msg]. *)
  let deal k =
    let scheme, keys = Threshold.setup rng ~n ~k in
    let shares = List.init k (fun i -> Threshold.share_sign keys.(i) ~msg) in
    (scheme, keys, shares)
  in
  let sigma, sigma_keys, sigma_shares = deal 193 in
  let tau, _, tau_shares = deal 129 in
  let pi, _, pi_shares = deal 65 in
  let share = List.hd sigma_shares in
  let signature = Threshold.combine_exn sigma ~msg sigma_shares in
  [
    ("share_sign_us", us_per_call (fun () -> Threshold.share_sign sigma_keys.(0) ~msg));
    ("share_verify_us", us_per_call (fun () -> Threshold.share_verify sigma ~msg share));
    ("verify_us", us_per_call (fun () -> Threshold.verify sigma ~msg signature));
    ("combine_k193_us", us_per_call (fun () -> Threshold.combine_verified sigma ~msg sigma_shares));
    ("combine_k129_us", us_per_call (fun () -> Threshold.combine_verified tau ~msg tau_shares));
    ("combine_k65_us", us_per_call (fun () -> Threshold.combine_verified pi ~msg pi_shares));
    ("sha256_batch64_us", us_per_call (fun () -> Sha256.digest request));
  ]
