type time = Sbft_sim.Engine.time

let us_f x = int_of_float (x *. 1_000.0)

(* BN-P254 / RELIC ballpark on 2.3 GHz Broadwell: G1 exp ~0.2 ms,
   pairing ~0.5 ms. *)
let bls_share_sign = us_f 200.
let bls_share_verify = us_f 1000.

(* Batch verification of k shares: one base check plus ~60 us per share
   (Boldyreva [22]; paper batches share verification in collectors). *)
let bls_batch_verify k = us_f 1000. + (k * us_f 60.)

(* Interpolation in the exponent: one G1 exp per share, spread over the
   collector's worker threads (the paper parallelizes this; we model an
   effective 4x speedup) plus fixed setup. *)
let bls_combine k = us_f 80. + (k * us_f 50.)

(* Interpolation with the Lagrange coefficient vector served from the
   signer-set memo: the field-inversion batch and coefficient products
   are skipped, leaving the per-share exponentiations plus a smaller
   fixed setup. *)
let bls_combine_cached k = us_f 20. + (k * us_f 40.)

(* Robust fallback identification after a failed combined-signature
   check: one full verification per share that was not already in the
   verification cache (a batch cannot name the culprits). *)
let bls_identify fresh = fresh * bls_share_verify

(* n-of-n group combination is field additions only. *)
let group_combine k = us_f 10. + (k * us_f 1.)

let bls_verify = us_f 1000.

(* Crypto++ official benchmarks: RSA-2048 sign 0.67 ms / verify 0.048 ms
   on a 2.7 GHz Skylake; scaled slightly up for the paper's 2.3 GHz
   Broadwell VMs. *)
let rsa_sign = us_f 800.
let rsa_verify = us_f 50.

let sha256 len = us_f 0.5 + (3 * len) (* ~3 ns/byte *)

let log2_ceil n =
  let rec go acc v = if v >= n then acc else go (acc + 1) (v * 2) in
  go 0 1

let merkle_prove n = us_f 1. + (log2_ceil (max 2 n) * us_f 0.5)
let merkle_verify depth = us_f 1. + (depth * us_f 0.5)

let kv_execute_op = us_f 4.
let persist_block bytes = us_f 50. + (bytes * 25 / 1000)

(* Sequential WAL append into the OS page cache: ~1 GB/s effective plus
   a small fixed cost per record. *)
let wal_append bytes = us_f 0.5 + bytes

(* Group-commit flush of the WAL tail (NVMe-class fsync).  Charged once
   per handler that dirtied the log, not per record. *)
let wal_fsync = us_f 120.

(* Gray-failure knob: a degraded disk stretches the flush latency by a
   per-node factor (firmware GC stalls, throttled cloud volumes).  The
   scale multiplies the nominal fsync only — appends hit the page cache
   and stay cheap, which is exactly the fail-slow asymmetry reported in
   gray-failure studies. *)
let wal_fsync_scaled ~scale =
  if scale <= 1.0 then wal_fsync
  else int_of_float (float_of_int wal_fsync *. scale)

(* Calibrated to the paper's unreplicated baseline of ~840 contract
   transactions per second on one machine (execution + RocksDB commit). *)
let evm_execute_tx = us_f 1190.

let message_auth_check = us_f 2.

(* ------------------------------------------------------------------ *)
(* Per-operation accounting: host-global diagnostic state, written by
   the charges in Sbft_core.Priced and read only by the harness between
   runs, so it cannot influence simulated behaviour. *)

module Tally = struct
  let table : (string, int) Hashtbl.t = Hashtbl.create 32

  let enabled = ref false

  let reset () =
    Hashtbl.reset table;
    enabled := true

  let note label t =
    if !enabled then begin
      let prev = Option.value (Hashtbl.find_opt table label) ~default:0 in
      Hashtbl.replace table label (prev + t)
    end;
    t

  let snapshot () =
    Hashtbl.fold (fun label total acc -> (label, total) :: acc) table []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
end
