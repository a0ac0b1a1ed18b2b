open Sbft_crypto

type decision =
  | Decide of { cert : Types.block_cert; view : int; reqs : Types.request list }
  | Adopt of Types.request list
  | Fill_null

let null_request : Types.request =
  { client = -1; timestamp = 0; op = ""; signature = "" }

(* ------------------------------------------------------------------ *)
(* Certificate validation.  Every check hashes its message through the
   cluster's {!Keys.hash_to_field} memo. *)

let verify_cert keys ~h (cert : Types.block_cert) =
  match cert with
  | Cert_fast sigma -> Threshold.verify_h keys.Keys.sigma ~h:(Keys.hash_to_field keys h) sigma
  | Cert_slow (tau, tau_tau) ->
      Threshold.verify_h keys.Keys.tau ~h:(Keys.hash_to_field keys h) tau
      && Threshold.verify_h keys.Keys.tau
           ~h:(Keys.hash_to_field keys (Types.tau2_message tau))
           tau_tau

let valid_slow_cert keys ~seq (cert : Types.slow_cert) =
  match cert with
  | No_commit -> true
  | Slow_prepared { tau; view; reqs } ->
      let h = Keys.block_hash keys ~seq ~view ~reqs in
      Threshold.verify_h keys.Keys.tau ~h:(Keys.hash_to_field keys h) tau
  | Slow_committed { tau; tau_tau; view; reqs } ->
      verify_cert keys ~h:(Keys.block_hash keys ~seq ~view ~reqs) (Cert_slow (tau, tau_tau))

let valid_fast_cert keys ~seq ~sender (cert : Types.fast_cert) =
  match cert with
  | No_preprepare -> true
  | Fast_preprepared { share; view; reqs } ->
      let h = Keys.block_hash keys ~seq ~view ~reqs in
      Int.equal share.Threshold.signer (sender + 1)
      (* A replica re-validating retransmitted view-change messages hits
         the per-(signer, msg, value) verdict cache instead of redoing
         the pairing check. *)
      && Threshold.share_verify_cached_h keys.Keys.sigma ~h:(Keys.hash_to_field keys h) share
  | Fast_committed { sigma; view; reqs } ->
      verify_cert keys ~h:(Keys.block_hash keys ~seq ~view ~reqs) (Cert_fast sigma)

let valid_checkpoint keys ~ls = function
  | None -> ls = 0
  | Some (pi, digest) ->
      let msg = Types.pi_message ~seq:ls ~digest in
      Threshold.verify_h keys.Keys.pi ~h:(Keys.hash_to_field keys msg) pi

let validate_message ~keys (vc : Types.view_change) =
  valid_checkpoint keys ~ls:vc.vc_ls vc.vc_checkpoint
  && List.for_all
       (fun (s : Types.vc_slot) ->
         s.slot_seq > vc.vc_ls
         && s.slot_seq <= vc.vc_ls + keys.Keys.config.Config.win
         && valid_slow_cert keys ~seq:s.slot_seq s.slow
         && valid_fast_cert keys ~seq:s.slot_seq ~sender:vc.vc_replica s.fast)
       vc.vc_slots

let select_stable ~keys msgs =
  List.fold_left
    (fun acc (vc : Types.view_change) ->
      if vc.vc_ls > acc && valid_checkpoint keys ~ls:vc.vc_ls vc.vc_checkpoint then
        vc.vc_ls
      else acc)
    0 msgs

(* ------------------------------------------------------------------ *)
(* Per-slot safe value *)

let reqs_key keys reqs =
  Sha256.hex (Sha256.digest_list (List.map (Keys.request_digest keys) reqs))

(* Decision for one slot from the (already individually validated)
   certificates contributed by the quorum.  [entries] pairs each sender
   with its (slow, fast) certificates for this slot. *)
let compute_slot keys ~seq entries =
  let fcplus1 = keys.Keys.config.Config.f + keys.Keys.config.Config.c + 1 in
  (* 1. A full proof decides outright (prefer slow per the paper's
        tie-breaking: the view change prefers the slow-path proof). *)
  let decided =
    List.find_map
      (fun (_, (slow : Types.slow_cert), (fast : Types.fast_cert)) ->
        match (slow, fast) with
        | Slow_committed { tau; tau_tau; view; reqs }, _
          when valid_slow_cert keys ~seq slow ->
            Some (Decide { cert = Cert_slow (tau, tau_tau); view; reqs })
        | _, Fast_committed { sigma; view; reqs }
          when valid_fast_cert keys ~seq ~sender:(-1) fast ->
            Some (Decide { cert = Cert_fast sigma; view; reqs })
        | _ -> None)
      entries
  in
  match decided with
  | Some d -> d
  | None ->
      (* 2. v* : highest view with a valid prepare certificate. *)
      let v_star, req_star =
        List.fold_left
          (fun ((bv, _) as best) (_, slow, _) ->
            match (slow : Types.slow_cert) with
            | Slow_prepared { view; reqs; _ }
              when view > bv && valid_slow_cert keys ~seq slow ->
                (view, Some reqs)
            | _ -> best)
          (-1, None) entries
      in
      (* 3. v̂ : highest view for which some unique value is "fast" —
         has f+c+1 pre-prepare shares at views >= it. *)
      let by_req = Hashtbl.create 8 in
      List.iter
        (fun (sender, _, fast) ->
          match (fast : Types.fast_cert) with
          | Fast_preprepared { view; reqs; _ }
            when valid_fast_cert keys ~seq ~sender fast ->
              let key = reqs_key keys reqs in
              let views, _ =
                Option.value (Hashtbl.find_opt by_req key) ~default:([], reqs)
              in
              Hashtbl.replace by_req key (view :: views, reqs)
          | _ -> ())
        entries;
      (* Fold candidate values in digest order; the uniqueness verdict
         is order-independent but the surviving [reqs] witness for a
         tied view is whichever was folded last. *)
      let v_hat, req_hat, unique =
        List.fold_left
          (fun (bv, breqs, uniq) (_, (views, reqs)) ->
            let sorted = List.sort (fun a b -> Int.compare b a) views in
            (* The highest v such that f+c+1 shares have view >= v is
               the (f+c+1)-th largest view among this value's shares
               (when fewer than f+c+1 shares exist, no view qualifies). *)
            match List.nth_opt sorted (fcplus1 - 1) with
            | None -> (bv, breqs, uniq)
            | Some v ->
                if v > bv then (v, Some reqs, true)
                else if Int.equal v bv && bv >= 0 then (bv, breqs, false)
                else (bv, breqs, uniq))
          (-1, None, true)
          (Sbft_sim.Det.sorted_bindings ~compare:String.compare by_req)
      in
      let v_hat, req_hat = if unique then (v_hat, req_hat) else (-1, None) in
      (* [req_star]/[req_hat] are [Some _] whenever their view is > -1. *)
      match (req_star, req_hat) with
      | Some reqs, _ when v_star >= v_hat && v_star > -1 -> Adopt reqs
      | _, Some reqs when v_hat > v_star -> Adopt reqs
      | _ -> Fill_null

(* A Byzantine sender may appear several times in a relayed message set
   (the per-view receive table dedups, but [compute] must stay safe on
   raw lists: quorum intersection counts {e distinct} replicas).  Keep
   the first message per sender. *)
let dedup_senders msgs =
  let seen = Hashtbl.create 8 in
  List.filter
    (fun (vc : Types.view_change) ->
      if Hashtbl.mem seen vc.vc_replica then false
      else begin
        Hashtbl.replace seen vc.vc_replica ();
        true
      end)
    msgs

let compute ~keys msgs =
  let msgs = dedup_senders msgs in
  let ls = select_stable ~keys msgs in
  (* Gather per-slot entries; senders without info for a slot implicitly
     contribute (No_commit, No_preprepare), which never changes the
     outcome, so they are simply omitted. *)
  let per_slot : (int, (int * Types.slow_cert * Types.fast_cert) list ref) Hashtbl.t =
    Hashtbl.create 64
  in
  let max_seq = ref ls in
  List.iter
    (fun (vc : Types.view_change) ->
      List.iter
        (fun (s : Types.vc_slot) ->
          if s.slot_seq > ls then begin
            let cell =
              match Hashtbl.find_opt per_slot s.slot_seq with
              | Some c -> c
              | None ->
                  let c = ref [] in
                  Hashtbl.replace per_slot s.slot_seq c;
                  c
            in
            cell := (vc.vc_replica, s.slow, s.fast) :: !cell;
            if s.slot_seq > !max_seq then max_seq := s.slot_seq
          end)
        vc.vc_slots)
    msgs;
  let decisions =
    List.init (!max_seq - ls) (fun i ->
        let seq = ls + 1 + i in
        let entries =
          match Hashtbl.find_opt per_slot seq with Some c -> !c | None -> []
        in
        (seq, compute_slot keys ~seq entries))
  in
  (ls, decisions)

let decision_reqs = function
  | Decide { reqs; _ } | Adopt reqs -> reqs
  | Fill_null -> [ null_request ]
