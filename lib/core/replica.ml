open Sbft_sim
open Sbft_crypto

type env = {
  engine : Engine.t;
  trace : Trace.t;
  keys : Keys.t;
  send : Engine.ctx -> src:int -> dst:int -> Types.msg -> unit;
  exec_cost : Types.request list -> Engine.time;
}

type byzantine =
  | Honest
  | Equivocating_primary
  | Silent
  | Corrupt_shares
  | Wrong_exec_digest
  | Stale_view_change

type durable = { wal : Sbft_store.Wal.t; blocks : Sbft_store.Block_store.t }

(* State-transfer retry state: one outstanding Get_state at a time,
   re-sent with exponential backoff and peer rotation until the replica
   catches up or learns the response shows nothing newer. *)
type st_pending = {
  mutable st_target : int;
  st_base : int;  (* random initial peer offset *)
  mutable st_attempt : int;
  mutable st_timer : Engine.timer option;
}

(* A share stash: the assoc list handed to [combine_stash] plus the
   set of its signers.  Collectors at paper scale accept k = 3f+c+1 =
   129 shares per slot; a [List.mem_assoc] / [List.length] on every
   arrival made share acceptance O(k²) per slot, so membership and the
   count come from {!Votes}.  Once the stash's certificate exists its
   shares are dead: [stash_release] drops them, and later arrivals are
   only counted, since the signer set still drives dedup and
   [obs_slot_shares]. *)
type stash = {
  mutable items : (int * Threshold.share) list;
  signers : Votes.t;
  mutable released : bool;
}

let stash_make () = { items = []; signers = Votes.create (); released = false }

(* A key already in the stash keeps its first share. *)
let stash_add st key sh =
  if not (Votes.mem st.signers key) then begin
    Votes.add st.signers key;
    if not st.released then st.items <- (key, sh) :: st.items
  end

let stash_release st =
  st.items <- [];
  st.released <- true

let stash_reset st =
  st.items <- [];
  Votes.reset st.signers

(* Replace the contents with a filtered assoc list, preserving its
   order (rare path: share eviction after a failed combine). *)
let stash_set st its =
  Votes.reset st.signers;
  st.items <- its;
  List.iter (fun (k, _) -> Votes.add st.signers k) its

type slot = {
  seq : int;
  (* accepted pre-prepare for the current view: (view, reqs, h) *)
  mutable pp : (int * Types.request list * string) option;
  (* collector-side share collection *)
  sigma_shares : stash;
  tau_shares : stash;
  commit_shares : stash;
  mutable fast_sent : bool; (* this collector already formed/combined σ *)
  mutable prepare_sent : bool;
  mutable slow_sent : bool;
  mutable fast_timer : Engine.timer option;
  (* replica-side commit state *)
  mutable sent_sign_share : bool;
  mutable prepare_tau : Field.t option; (* Some once our commit share went out *)
  mutable committed : Types.request list option;
  mutable executed : bool;
  (* pending proofs waiting for the block content *)
  mutable pp_at : Engine.time; (* when the pre-prepare was accepted *)
  mutable pending_fast : (int * Types.block_cert) option; (* view, σ *)
  mutable pending_slow : (int * Types.block_cert) option; (* view, τ and ττ *)
  (* execution collector state: shares bucketed by claimed digest so a
     Byzantine replica announcing a bogus digest first cannot block the
     honest bucket (a short assoc list: honest replicas claim one) *)
  mutable pi_shares : (string * stash) list;
  mutable exec_proof_sent : bool;
  mutable acks_sent : bool;
  (* view-change report (§V-G): the σ commit proof or the highest σ
     pre-prepare share, and the τ/ττ commit proof or the highest τ
     prepare *)
  mutable fast : Types.fast_cert;
  mutable slow : Types.slow_cert;
}

let new_slot seq =
  {
    seq;
    pp = None;
    sigma_shares = stash_make ();
    tau_shares = stash_make ();
    commit_shares = stash_make ();
    fast_sent = false;
    prepare_sent = false;
    slow_sent = false;
    fast_timer = None;
    sent_sign_share = false;
    prepare_tau = None;
    committed = None;
    executed = false;
    pp_at = 0;
    pending_fast = None;
    pending_slow = None;
    pi_shares = [];
    exec_proof_sent = false;
    acks_sent = false;
    fast = Types.No_preprepare;
    slow = Types.No_commit;
  }

(* The slot's block is decided.  Every σ/τ collector callback checks
   [sl.committed = None], so those shares are dead from here on.  The ττ
   stash stays: a collector that has committed still combines ττ and
   broadcasts the slow proof for the replicas that have not. *)
let set_committed sl reqs =
  sl.committed <- Some reqs;
  stash_release sl.sigma_shares;
  stash_release sl.tau_shares

(* The seq's π is known (combined here or received verified): no π
   combine can run for it again. *)
let release_pi_shares sl = List.iter (fun (_, b) -> stash_release b) sl.pi_shares

type t = {
  env : env;
  my : Keys.replica_keys;
  id : int;
  san : Sanitizer.t;
  store : Sbft_store.Auth_store.t;
  blocks : Sbft_store.Block_store.t;
  mutable view : int;
  mutable next_seq : int; (* primary: next sequence to assign *)
  mutable ls : int; (* windowing bound (includes the fast-path rule) *)
  mutable stable : int; (* highest π-certified checkpoint *)
  slots : (int, slot) Hashtbl.t;
  intake : Intake.t;
  mutable in_view_change : bool;
  mutable sent_vc_for : int; (* highest view we issued a view-change for *)
  vc_msgs : (int, (int, Types.view_change) Hashtbl.t) Hashtbl.t;
  checkpoint_pis : (int, Field.t * string) Hashtbl.t;
  mutable last_new_view : (int * Types.view_change list) option;
      (* latest validated new-view proofs, retransmitted to stale
         complainers so a rejoining replica can learn the current view *)
  nv_resent : (int, int * Engine.time) Hashtbl.t;
      (* complainer -> (view, time) of the last new-view retransmission:
         rate-limits the (large) proof-set resend to once per view per
         peer, or once per retry interval, so repeated stale view-change
         messages cannot be used as a cheap amplification vector *)
  st_served : (int, Engine.time) Hashtbl.t;
      (* requester -> time of the last State_resp we served it: a full
         snapshot plus block suffix is the largest message in the
         protocol, so Get_state floods must not translate 1:1 into
         State_resp floods *)
  mutable st : st_pending option;
  wal : Sbft_store.Wal.t;
  mutable retired : bool;
      (* set when a crash-amnesia rebuild replaces this object: pending
         timer callbacks on the old incarnation must become no-ops *)
  mutable failures_observed : bool;
  mutable fast_eta : float;
      (* EWMA of observed pre-prepare -> full-commit-proof time (ns): the
         paper's "adaptive protocol based on past network profiling" for
         the fast-path fallback timer (§V-E) *)
  mutable byz : byzantine;
  mutable fsync_scale : float;
      (* gray-failure knob: degraded-disk multiplier applied to the WAL
         group-commit flush charge (1.0 = healthy) *)
  (* metrics *)
  mutable n_executed_blocks : int;
  mutable n_fast : int;
  mutable n_slow : int;
  mutable n_view_changes : int;
}

let cfg t = t.env.keys.Keys.config
let num_replicas t = Config.n (cfg t)
let keys t = t.env.keys

let create ~env ~my ~store ~(durable : durable) =
  let config = env.keys.Keys.config in
  let san =
    Sanitizer.create ~enabled:(Config.sanitized config) ~f:config.Config.f
      ~c:config.Config.c ()
  in
  Sanitizer.check_config san ~n:(Config.n config);
  {
    env;
    my;
    id = my.Keys.replica_id;
    san;
    store;
    blocks = durable.blocks;
    view = 0;
    next_seq = 1;
    ls = 0;
    stable = 0;
    slots = Hashtbl.create 128;
    intake = Intake.create config;
    in_view_change = false;
    sent_vc_for = 0;
    vc_msgs = Hashtbl.create 4;
    checkpoint_pis = Hashtbl.create 8;
    last_new_view = None;
    nv_resent = Hashtbl.create 4;
    st_served = Hashtbl.create 4;
    st = None;
    wal = durable.wal;
    retired = false;
    failures_observed = false;
    fast_eta = float_of_int (env.keys.Keys.config.Config.fast_path_timeout / 2);
    byz = Honest;
    fsync_scale = 1.0;
    n_executed_blocks = 0;
    n_fast = 0;
    n_slow = 0;
    n_view_changes = 0;
  }

let id t = t.id
let sanitizer t = t.san
let view t = t.view
let primary_of t v = Collectors.primary ~config:(cfg t) ~view:v
let is_primary t = Int.equal (primary_of t t.view) t.id
let last_executed t = Sbft_store.Auth_store.last_executed t.store
let last_stable t = t.stable
let state_digest t = Sbft_store.Auth_store.digest t.store
let store t = t.store
let blocks_executed t = t.n_executed_blocks
let view_changes_completed t = t.n_view_changes
let fast_commits t = t.n_fast
let slow_commits t = t.n_slow
let set_byzantine t b = t.byz <- b
let wal t = t.wal
let set_fsync_scale t s = t.fsync_scale <- Float.max 1.0 s

(* ------------------------------------------------------------------ *)
(* Adversary observation surface (obs_* namespace).

   Everything an adaptive schedule-fuzzer attacker may inspect when
   choosing its next move.  Deliberately restricted to state a real
   network adversary colluding with f replicas could learn from traffic
   and its own members: view/progress counters and per-slot share
   tallies — never key material, never honest replicas' unsent buffers.
   The R6 taint lint treats obs_* results as attacker-tainted, so
   protocol handlers cannot grow a dependence on them. *)

let obs_view t = t.view
let obs_last_executed t = last_executed t
let obs_last_stable t = t.stable
let obs_in_view_change t = t.in_view_change

(* Share counts an adversary's colluding collector would see arriving
   for slot [seq]: (sigma, tau, commit) tallies, 0s for unknown slots. *)
let obs_slot_shares t seq =
  match Hashtbl.find_opt t.slots seq with
  | None -> (0, 0, 0)
  | Some s ->
      let n st = Votes.count st.signers in
      (n s.sigma_shares, n s.tau_shares, n s.commit_shares)

(* Highest slot with any protocol activity — where the frontier is. *)
let obs_frontier t =
  Hashtbl.fold (fun seq _ acc -> max seq acc) t.slots 0

let certified_checkpoints t =
  List.map
    (fun (seq, (_, digest)) -> (seq, digest))
    (Det.sorted_bindings ~compare:Int.compare t.checkpoint_pis)

let held_shares t seq =
  match Hashtbl.find_opt t.slots seq with
  | None -> (0, 0, 0, 0)
  | Some s ->
      let n st = List.length st.items in
      ( n s.sigma_shares,
        n s.tau_shares,
        n s.commit_shares,
        List.fold_left (fun acc (_, b) -> acc + n b) 0 s.pi_shares )

let client_last_timestamp t ~client =
  Option.map (fun ce -> ce.Sbft_store.Block_store.ce_timestamp)
    (Intake.find_row t.intake ~client)

let committed_block t seq =
  match Hashtbl.find_opt t.slots seq with
  | Some s -> s.committed
  | None ->
      (* Read from the persisted ledger after GC. *)
      Option.map
        (fun (e : Sbft_store.Block_store.entry) -> e.reqs)
        (Sbft_store.Block_store.find t.blocks seq)

let slot t seq =
  match Hashtbl.find_opt t.slots seq with
  | Some s -> s
  | None ->
      let s = new_slot seq in
      Hashtbl.replace t.slots seq s;
      s

(* [detail] is formatted only when tracing is on. *)
let trace t ctx kind detail =
  Trace.emit t.env.trace ~time:(Engine.ctx_now ctx) ~node:t.id ~kind ~detail

(* Every replica timer goes through this wrapper so that retiring the
   object (crash-amnesia rebuild) silences callbacks still in flight on
   the old incarnation. *)
let set_replica_timer t ~after f =
  Engine.set_timer t.env.engine ~node:t.id ~after (fun ctx ->
      if not t.retired then f ctx)

let retire t = t.retired <- true

let send t ctx ~dst msg = t.env.send ctx ~src:t.id ~dst msg

let broadcast_replicas t ctx msg =
  for r = 0 to num_replicas t - 1 do
    send t ctx ~dst:r msg
  done

(* A direct reply to a client: a signed server message ([31]), whose
   per-request signing cost is exactly what ingredient 3 removes. *)
let send_reply t ctx ~client ~timestamp ~seq ~value =
  Priced.rsa_sign ctx;
  send t ctx ~dst:client
    (Types.Reply { view = t.view; replica = t.id; client; timestamp; seq; value })

(* ------------------------------------------------------------------ *)
(* Write-ahead logging (crash-amnesia durability).

   [wal_log] buffers a record and charges the append; [wal_sync]
   group-commits whatever the current handler buffered and charges one
   fsync.  Handlers call [wal_sync] immediately before sending a message
   that promises the logged state (sign shares, commit shares,
   view-change votes), so a restart never forgets a promise the network
   already saw — the unsynced tail is exactly what a crash may lose. *)

let wal_log t ctx record =
  if (cfg t).Config.durable_wal then Priced.wal_append ctx t.wal record

let wal_sync t ctx =
  if (cfg t).Config.durable_wal then Priced.wal_fsync ctx t.wal ~scale:t.fsync_scale

(* ------------------------------------------------------------------ *)
(* Collector-side share combination (§IV linearity).

   [combine_stash] is the single entry point every collector site
   (σ/τ/ττ/π) goes through: {!Priced.combine} runs and charges the
   combine (combine-then-verify with [Config.optimistic_combine], the
   batch-verify-every-share baseline without).  A failed optimistic
   check is an observed failure.

   Returns the combined signature, if any.  Signers identified as
   invalid are evicted from [stash], so the next attempt combines a
   clean set.  The caller checks the quorum (R14 pairs each threshold
   comparison with its [Sanitizer.check_quorum] in one function). *)

let combine_stash t ctx ~scheme ~k ~group ~msg stash =
  let c = Priced.combine ctx (keys t) scheme ~k ~group ~msg (List.map snd stash.items) in
  if c.Priced.fallback then t.failures_observed <- true;
  if c.Priced.bad_signers <> [] then
    stash_set stash
      (List.filter
         (fun (_, sh) -> not (List.exists (Int.equal sh.Threshold.signer) c.Priced.bad_signers))
         stash.items);
  c.Priced.signature

(* ------------------------------------------------------------------ *)
(* The slot's view-change report.  A commit proof, once held, is never
   downgraded by a later pre-prepare share or prepare. *)

let note_preprepared sl fast =
  match sl.fast with Types.Fast_committed _ -> () | _ -> sl.fast <- fast

let note_prepared sl slow =
  match sl.slow with Types.Slow_committed _ -> () | _ -> sl.slow <- slow

(* A commit proof is recorded even when the slot already committed: by
   [commit] from a verified or decided certificate, and by recovery from
   the one its ledger entry holds. *)
let note_committed sl ~view ~reqs (cert : Types.block_cert) =
  match cert with
  | Cert_fast sigma -> sl.fast <- Types.Fast_committed { sigma; view; reqs }
  | Cert_slow (tau, tau_tau) -> sl.slow <- Types.Slow_committed { tau; tau_tau; view; reqs }

(* A [Corrupt_shares] replica sends a forged share in place of each
   share it signs (the signing cost is paid either way). *)
let forge_share t share =
  match t.byz with
  | Corrupt_shares -> Threshold.forge_invalid_share ~signer:(t.id + 1)
  | _ -> share

(* ------------------------------------------------------------------ *)
(* Sign-share emission (§V-D).

   [sign_block] signs h with this replica's σ and τ key shares and keeps
   the σ share as the slot's highest pre-prepare for view changes.
   [corrupt] lets a [Corrupt_shares] replica lie about a block it has
   just accepted from the primary. *)

let sign_block t ctx sl ~view ~reqs ~h ~corrupt =
  sl.sent_sign_share <- true;
  let sigma_share, tau_share = Priced.sign_block ctx (keys t) t.my ~h in
  let forge share = if corrupt then forge_share t share else share in
  let sigma_share = forge sigma_share and tau_share = forge tau_share in
  note_preprepared sl (Types.Fast_preprepared { share = sigma_share; view; reqs });
  (sigma_share, tau_share)

let send_sign_shares t ctx ~seq ~view (sigma_share, tau_share) =
  List.iter
    (fun c ->
      send t ctx ~dst:c
        (Types.Sign_share { seq; view; sigma_share; tau_share; replica = t.id }))
    (Collectors.slow_path_collectors (keys t) ~view ~seq)

(* A fresh promise: sign, persist the accepted block, then send. *)
let promise_block t ctx sl ~view ~reqs ~h ~corrupt =
  let seq = sl.seq in
  let shares = sign_block t ctx sl ~view ~reqs ~h ~corrupt in
  (* The sign share is a promise: persist the accepted block
     before the network can observe it. *)
  wal_log t ctx (Sbft_store.Wal.Accepted_pre_prepare { seq; view; reqs });
  wal_sync t ctx;
  send_sign_shares t ctx ~seq ~view shares

(* ------------------------------------------------------------------ *)
(* Block application, shared by in-order execution and recovery replay.

   Exactly-once execution ({!Intake.exec_ops}).  Returns the
   per-request outputs. *)

let execute_once t ctx sl reqs =
  Sanitizer.record_execute t.san ~seq:sl.seq;
  sl.executed <- true;
  Priced.execute ctx t.store ~exec_cost:t.env.exec_cost ~seq:sl.seq reqs
    ~ops:(Intake.exec_ops t.intake reqs)

(* Record each first execution in the client table (retransmitted
   requests are answered from it).  [log] persists the new rows;
   recovery replays blocks whose rows the WAL already holds. *)
let record_client_rows t ctx ~seq reqs outputs ~log =
  Intake.record_rows t.intake ~seq reqs outputs ~fresh:(fun row ->
      if log then wal_log t ctx (Sbft_store.Wal.Client_row row))

(* ------------------------------------------------------------------ *)
(* The protocol, in one recursive binding group so that it reads in
   protocol order: a handler calls helpers defined below it.  The call
   graph has no cycle through two functions; only [send_get_state]
   calls itself, from its timer callback. *)

let rec on_message t ctx ~src msg =
  match t.byz with
  | Silent -> ()
  | _ -> (
      Priced.mac ctx;
      match msg with
      | Types.Request r -> on_request t ctx r
      | Types.Pre_prepare { seq; view; reqs } -> on_pre_prepare t ctx ~seq ~view ~reqs
      | Types.Sign_share { seq; view; sigma_share; tau_share; replica } ->
          on_sign_share t ctx ~seq ~view ~sigma_share ~tau_share ~replica
      | Types.Full_commit_proof { seq; view; sigma } ->
          on_commit_proof t ctx ~seq ~view (Types.Cert_fast sigma)
      | Types.Prepare { seq; view; tau } -> on_prepare t ctx ~seq ~view ~tau
      | Types.Commit { seq; view; share } -> on_commit t ctx ~seq ~view ~share
      | Types.Full_commit_proof_slow { seq; view; tau; tau_tau } ->
          on_commit_proof t ctx ~seq ~view (Types.Cert_slow (tau, tau_tau))
      | Types.Sign_state { seq; digest; share } -> on_sign_state t ctx ~seq ~digest ~share
      | Types.Full_execute_proof { seq; digest; pi } ->
          on_full_execute_proof t ctx ~seq ~digest ~pi ~src
      | Types.Execute_ack _ | Types.Reply _ -> () (* client-only messages *)
      | Types.View_change vc -> on_view_change t ctx vc
      | Types.New_view { view; proofs } -> on_new_view t ctx ~view ~proofs
      | Types.Query { client; qid; query } -> on_query t ctx ~client ~qid ~query
      | Types.Query_resp _ -> () (* client-only *)
      | Types.Get_block { seq; replica } -> on_get_block t ctx ~seq ~replica
      | Types.Block_resp { seq; view; reqs } -> on_block_resp t ctx ~seq ~view ~reqs
      | Types.Get_state { upto; replica } -> on_get_state t ctx ~upto ~replica
      | Types.State_resp { snapshot; snap_seq; pi; digest; blocks; table } ->
          on_state_resp t ctx ~snapshot ~snap_seq ~pi ~digest ~blocks ~table)

(* ------------------------------------------------------------------ *)
(* Request intake and proposing (primary) *)

and on_request t ctx (r : Types.request) =
  Intake.on_request t.intake ctx (keys t) r ~primary:(is_primary t)
    ~reply:(fun (ce : Intake.row) ->
      (* Answer retransmissions of already-executed operations directly. *)
      send_reply t ctx ~client:r.client ~timestamp:ce.ce_timestamp ~seq:ce.ce_seq
        ~value:ce.ce_value)
    ~queued:(fun () -> try_propose t ctx)
    ~forward:(fun () -> send t ctx ~dst:(primary_of t t.view) (Types.Request r))

and inflight t =
  (* Blocks proposed but not yet known committed by us (primary view). *)
  let le = last_executed t in
  let count = ref 0 in
  for s = le + 1 to t.next_seq - 1 do
    match Hashtbl.find_opt t.slots s with
    | Some sl when sl.committed = None -> incr count
    | None -> incr count
    | Some _ -> ()
  done;
  !count

and try_propose t ctx =
  let config = cfg t in
  Intake.cut_blocks t.intake ctx
    ~inflight:(fun () -> inflight t)
    ~room:(fun () ->
      is_primary t
      && (not t.in_view_change)
      && t.next_seq <= t.ls + config.Config.win
      && t.next_seq <= last_executed t + Config.active_window config)
    ~propose:(propose_block t)
    ~arm:(fun flush -> ignore (set_replica_timer t ~after:Config.batch_timeout flush))

and propose_block t ctx reqs =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  Priced.hash ctx (Types.requests_bytes reqs);
  trace t ctx "send:pre-prepare" (fun () ->
      Printf.sprintf "seq=%d view=%d batch=%d" seq t.view (List.length reqs));
  (match t.byz with
  | Equivocating_primary ->
      (* Send block A to the first half and block B to the second; pad
         with a null request so the blocks differ even for batch = 1. *)
      let reqs_b = List.rev reqs @ [ View_change.null_request ] in
      let n = num_replicas t in
      for r = 0 to n - 1 do
        let payload = if r < n / 2 then reqs else reqs_b in
        send t ctx ~dst:r (Types.Pre_prepare { seq; view = t.view; reqs = payload })
      done
  | _ -> broadcast_replicas t ctx (Types.Pre_prepare { seq; view = t.view; reqs }))

(* ------------------------------------------------------------------ *)
(* Fast path: pre-prepare -> sign-share -> full-commit-proof *)

and on_pre_prepare t ctx ~seq ~view ~reqs =
  let config = cfg t in
  let sl = slot t seq in
  if
    Int.equal view t.view
    && (not t.in_view_change)
    && (match sl.pp with Some (v, _, _) -> not (Int.equal v view) | None -> true)
    && seq > t.ls
    && seq <= t.ls + config.Config.win
  then begin
    (* Authenticate the client operations (null/view-change fillers are
       locally constructed and carry no signature). *)
    let real_reqs = List.filter (fun (r : Types.request) -> r.client >= 0) reqs in
    if Priced.verify_requests ctx (keys t) real_reqs then begin
      let h = Priced.block_hash ctx (keys t) ~seq ~view ~reqs in
      sl.pp <- Some (view, reqs, h);
      sl.pp_at <- Engine.ctx_now ctx;
      List.iter (Intake.mark_outstanding t.intake) real_reqs;
      if not sl.sent_sign_share then promise_block t ctx sl ~view ~reqs ~h ~corrupt:true;
      (* A commit proof may have arrived before the block. *)
      try_pending_proofs t ctx sl
    end
  end
  else if seq > t.ls + config.Config.win then maybe_state_transfer t ctx seq

and on_sign_share t ctx ~seq ~view ~sigma_share ~tau_share ~replica =
  let config = cfg t in
  if Int.equal view t.view && seq > t.ls && seq <= t.ls + config.Config.win then begin
    let sl = slot t seq in
    if not (Votes.mem sl.sigma_shares.signers replica) then begin
      stash_add sl.sigma_shares replica sigma_share;
      stash_add sl.tau_shares replica tau_share;
      collector_check t ctx sl ~view
    end
  end

and collector_check t ctx sl ~view =
  let config = cfg t in
  let seq = sl.seq in
  let fast_collectors = Collectors.c_collectors (keys t) ~view ~seq in
  let slow_collectors = Collectors.slow_path_collectors (keys t) ~view ~seq in
  (* Fast path: combine σ when 3f+c+1 shares arrived. *)
  (match Collectors.rank fast_collectors t.id with
  | Some rank when config.Config.fast_path -> (
      if
        Votes.count sl.sigma_shares.signers >= Config.sigma_threshold config
        && (not sl.fast_sent)
        && sl.committed = None
      then
        match sl.pp with
        | None -> () (* wait for the block to know h *)
        | Some (v, _, h) when Int.equal v view ->
            sl.fast_sent <- true;
            let act ctx =
              (* The view guard kills zombie firings: a view change
                 resets the slot's share stashes in place, so a
                 staggered callback armed in the old view would
                 otherwise combine an empty (or refilling) stash. *)
              if sl.committed = None && sl.pending_fast = None && Int.equal t.view view
              then begin
                Sanitizer.check_quorum t.san Sanitizer.Sigma
                  ~count:(Votes.count sl.sigma_shares.signers);
                let k = Config.sigma_threshold config in
                let group = config.Config.use_group_sig && not t.failures_observed in
                match
                  combine_stash t ctx ~scheme:(keys t).Keys.sigma ~k ~group ~msg:h
                    sl.sigma_shares
                with
                | Some sigma ->
                    trace t ctx "send:full-commit-proof" (fun () -> Printf.sprintf "seq=%d" seq);
                    broadcast_replicas t ctx
                      (Types.Full_commit_proof { seq; view; sigma })
                | None ->
                    (* Invalid shares present: retry when more arrive. *)
                    t.failures_observed <- true;
                    sl.fast_sent <- false
              end
            in
            let stagger = rank * config.Config.collector_stagger in
            if stagger = 0 then act ctx
            else ignore (set_replica_timer t ~after:stagger act)
        | Some _ -> ())
  | _ -> ());
  (* Slow path trigger: 2f+c+1 τ shares, after the fast-path timeout
     (immediately when the fast path is disabled).  The primary is the
     last-ranked fallback collector (§V-E). *)
  match Collectors.rank slow_collectors t.id with
  | None -> ()
  | Some rank -> (
      if
        Votes.count sl.tau_shares.signers >= Config.tau_threshold config
        && (not sl.prepare_sent)
        && sl.committed = None
      then begin
        match sl.pp with
        | None -> ()
        | Some (v, _, h) when Int.equal v view ->
            sl.prepare_sent <- true;
            (* Adaptive fallback timer: wait about twice the recently
               observed fast-path completion time, clamped to the
               configured maximum. *)
            let adaptive =
              min config.Config.fast_path_timeout
                (max (Engine.ms 5) (int_of_float (2.0 *. t.fast_eta)))
            in
            let wait =
              (if config.Config.fast_path then adaptive else 0)
              + (rank * config.Config.collector_stagger)
            in
            let act ctx =
              (* Give up on the fast path only if no proof emerged.
                 The view guard matches the σ collector above: entering
                 a new view stash-resets this slot, so a fallback timer
                 armed in the old view must not fire into it. *)
              if sl.committed = None && sl.pending_fast = None && Int.equal t.view view
              then begin
                if config.Config.fast_path then t.failures_observed <- true;
                Sanitizer.check_quorum t.san Sanitizer.Tau
                  ~count:(Votes.count sl.tau_shares.signers);
                let k = Config.tau_threshold config in
                match
                  combine_stash t ctx ~scheme:(keys t).Keys.tau ~k ~group:false
                    ~msg:h sl.tau_shares
                with
                | Some tau ->
                    trace t ctx "send:prepare" (fun () -> Printf.sprintf "seq=%d" seq);
                    broadcast_replicas t ctx (Types.Prepare { seq; view; tau })
                | None -> sl.prepare_sent <- false
              end
            in
            if wait = 0 then act ctx
            else sl.fast_timer <- Some (set_replica_timer t ~after:wait act)
        | Some _ -> ()
      end)

(* A full commit proof, fast (σ) or slow (τ, ττ). *)
and on_commit_proof t ctx ~seq ~view cert =
  let sl = slot t seq in
  if sl.committed = None then begin
    match sl.pp with
    | Some (v, reqs, h) when Int.equal v view ->
        if Priced.verify_cert ctx (keys t) ~h cert then commit t ctx sl ~reqs ~view ~h cert
    | _ ->
        (* Proof before block: stash it and fetch the block. *)
        (match cert with
        | Types.Cert_fast _ -> sl.pending_fast <- Some (view, cert)
        | Types.Cert_slow _ -> sl.pending_slow <- Some (view, cert));
        request_block t ctx seq
  end

and try_pending_proofs t ctx sl =
  (match sl.pending_fast with
  | Some (view, cert) when sl.committed = None ->
      sl.pending_fast <- None;
      on_commit_proof t ctx ~seq:sl.seq ~view cert
  | _ -> ());
  match sl.pending_slow with
  | Some (view, cert) when sl.committed = None ->
      sl.pending_slow <- None;
      on_commit_proof t ctx ~seq:sl.seq ~view cert
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Linear-PBFT path: prepare -> commit -> full-commit-proof-slow *)

and on_prepare t ctx ~seq ~view ~tau =
  let config = cfg t in
  if Int.equal view t.view && seq > t.ls && seq <= t.ls + config.Config.win then begin
    let sl = slot t seq in
    if sl.prepare_tau = None then begin
      match sl.pp with
      | Some (v, reqs, h) when Int.equal v view ->
          if Priced.verify ctx (keys t) (keys t).Keys.tau ~msg:h tau then begin
            sl.prepare_tau <- Some tau;
            note_prepared sl (Types.Slow_prepared { tau; view; reqs });
            wal_log t ctx (Sbft_store.Wal.Accepted_prepare { seq; view; tau });
            wal_sync t ctx;
            let share =
              forge_share t
                (Priced.sign_share ctx (keys t) t.my.Keys.tau_sk ~msg:(Types.tau2_message tau))
            in
            let collectors = Collectors.slow_path_collectors (keys t) ~view ~seq in
            List.iter
              (fun c -> send t ctx ~dst:c (Types.Commit { seq; view; share }))
              collectors
          end
      | _ -> request_block t ctx seq
    end
  end

and on_commit t ctx ~seq ~view ~share =
  let config = cfg t in
  if Int.equal view t.view && seq > t.ls && seq <= t.ls + config.Config.win then begin
    let sl = slot t seq in
    if
      (not (Votes.mem sl.commit_shares.signers share.Threshold.signer))
      && not sl.slow_sent
    then begin
      stash_add sl.commit_shares share.Threshold.signer share;
      if Votes.count sl.commit_shares.signers >= Config.tau_threshold config then begin
        match sl.prepare_tau with
        | Some tau when not sl.slow_sent ->
            sl.slow_sent <- true;
            Sanitizer.check_quorum t.san Sanitizer.Tau
              ~count:(Votes.count sl.commit_shares.signers);
            let k = Config.tau_threshold config in
            (match
               combine_stash t ctx ~scheme:(keys t).Keys.tau ~k ~group:false
                 ~msg:(Types.tau2_message tau) sl.commit_shares
             with
            | Some tau_tau ->
                trace t ctx "send:full-commit-proof-slow" (fun () -> Printf.sprintf "seq=%d" seq);
                broadcast_replicas t ctx
                  (Types.Full_commit_proof_slow { seq; view; tau; tau_tau })
            | None -> sl.slow_sent <- false)
        | _ -> ()
      end
    end
  end

(* ------------------------------------------------------------------ *)
(* Commit and in-order execution *)

(* Commit [reqs] at [sl] under [cert], which the caller verified (or a
   new view decided) against the block hash [h]. *)
and commit t ctx sl ~reqs ~view ~h cert =
  note_committed sl ~view ~reqs cert;
  let fast = match cert with Types.Cert_fast _ -> true | Types.Cert_slow _ -> false in
  if sl.committed = None then begin
    Sanitizer.record_commit t.san ~seq:sl.seq ~view ~digest:h;
    set_committed sl reqs;
    (match sl.fast_timer with Some tm -> Engine.cancel_timer tm | None -> ());
    if fast then t.n_fast <- t.n_fast + 1 else t.n_slow <- t.n_slow + 1;
    (* Network profiling for the adaptive fallback timer. *)
    (if fast && sl.pp_at > 0 then begin
       let sample = float_of_int (Engine.ctx_now ctx - sl.pp_at) in
       t.fast_eta <- (0.9 *. t.fast_eta) +. (0.1 *. sample)
     end
     else if not fast then
       t.fast_eta <-
         Float.min
           (float_of_int (cfg t).Config.fast_path_timeout)
           (t.fast_eta *. 1.25));
    Intake.note_progress t.intake ctx;
    trace t ctx "commit" (fun () ->
        Printf.sprintf "seq=%d view=%d path=%s" sl.seq view (if fast then "fast" else "slow"));
    let entry = { Sbft_store.Block_store.seq = sl.seq; view; reqs; cert } in
    Priced.persist ctx (Sbft_store.Block_store.entry_size entry);
    Sbft_store.Block_store.add t.blocks entry;
    wal_log t ctx (Sbft_store.Wal.Commit_cert { seq = sl.seq; view; fast });
    (* Fast-path checkpointing rule (§V-F). *)
    if fast then begin
      let candidate = sl.seq - Config.active_window (cfg t) in
      if candidate > t.ls then t.ls <- candidate
    end;
    try_execute t ctx;
    if is_primary t then try_propose t ctx
  end

and try_execute t ctx =
  let config = cfg t in
  let continue = ref true in
  while !continue do
    let next = last_executed t + 1 in
    match Hashtbl.find_opt t.slots next with
    | Some ({ committed = Some reqs; executed = false; _ } as sl) -> begin
        let outputs = execute_once t ctx sl reqs in
        let digest = Sbft_store.Auth_store.digest t.store in
        t.n_executed_blocks <- t.n_executed_blocks + 1;
        Intake.note_progress t.intake ctx;
        List.iter (Intake.clear_outstanding t.intake) reqs;
        record_client_rows t ctx ~seq:next reqs outputs ~log:true;
        (* Periodic checkpoint snapshot for state transfer.  The client
           table rides along: resuming dedup is part of resuming state. *)
        if next mod Config.checkpoint_interval config = 0 then
          Sbft_store.Block_store.set_checkpoint t.blocks ~seq:next
            ~snapshot:(Sbft_store.Auth_store.delayed_snapshot t.store)
            ~table:(Intake.rows t.intake);
        (* Group commit: one fsync covers the block's rows and any
           commit certificates buffered earlier in this handler, before
           the execution results go on the wire. *)
        wal_sync t ctx;
        (* sign-state: every block when execution acks are on, otherwise
           only at checkpoint boundaries. *)
        if config.Config.execution_acks || next mod Config.checkpoint_interval config = 0
        then begin
          (* A Byzantine replica may announce a bogus digest — its share
             is then a valid signature on the wrong message and lands in
             a separate bucket at the collector. *)
          let digest =
            match t.byz with
            | Wrong_exec_digest -> Sbft_crypto.Sha256.digest "bogus-state"
            | _ -> digest
          in
          let share =
            forge_share t
              (Priced.sign_share ctx (keys t) t.my.Keys.pi_sk
                 ~msg:(Types.pi_message ~seq:next ~digest))
          in
          List.iter
            (fun e ->
              send t ctx ~dst:e (Types.Sign_state { seq = next; digest; share }))
            (Collectors.exec_path_collectors (keys t) ~view:t.view ~seq:next)
        end;
        (* Direct f+1 replies when execution acks are off. *)
        if not config.Config.execution_acks then
          List.iteri
            (fun _index ((r : Types.request), value) ->
              if r.client >= 0 then begin
                (* A re-proposed duplicate degrades to a no-op above, so
                   [value] would be [""] here; answer from the client
                   table (the original execution's result) instead, so
                   every replica replies with the same bytes and the
                   client's f+1 match cannot mix "" with real values. *)
                let value =
                  match Intake.find_row t.intake ~client:r.client with
                  | Some ce when Int.equal ce.Sbft_store.Block_store.ce_timestamp r.timestamp ->
                      ce.ce_value
                  | _ -> value
                in
                send_reply t ctx ~client:r.client ~timestamp:r.timestamp ~seq:next ~value
              end)
            (List.combine reqs outputs);
        (* The E-collector may have combined π before executing. *)
        maybe_send_acks t ctx sl
      end
    | _ -> continue := false
  done;
  if is_primary t then try_propose t ctx

(* ------------------------------------------------------------------ *)
(* Execution collection: sign-state -> full-execute-proof -> execute-ack *)

and on_sign_state t ctx ~seq ~digest ~share =
  let config = cfg t in
  let sl = slot t seq in
  if not sl.exec_proof_sent then begin
    let bucket =
      match List.find_opt (fun (d, _) -> String.equal d digest) sl.pi_shares with
      | Some (_, b) -> b
      | None ->
          let b = stash_make () in
          (* Once π is known, later shares are only counted. *)
          if Hashtbl.mem t.checkpoint_pis seq then stash_release b;
          sl.pi_shares <- (digest, b) :: sl.pi_shares;
          b
    in
    if not (Votes.mem bucket.signers share.Threshold.signer) then begin
      stash_add bucket share.Threshold.signer share;
      if Votes.count bucket.signers >= Config.pi_threshold config then begin
        let e_list = Collectors.exec_path_collectors (keys t) ~view:t.view ~seq in
        let rank = Option.value (Collectors.rank e_list t.id) ~default:0 in
        (* A staggered callback may fire after a stable checkpoint
           garbage-collected the slot (and its π): the slot must still
           be live, or π would be recombined for a collected seq. *)
        let act ctx =
          if
            (not sl.exec_proof_sent)
            && Hashtbl.mem t.slots seq
            && not (Hashtbl.mem t.checkpoint_pis seq)
          then begin
            Sanitizer.check_quorum t.san Sanitizer.Pi ~count:(Votes.count bucket.signers);
            let k = Config.pi_threshold config in
            match
              combine_stash t ctx ~scheme:(keys t).Keys.pi ~k ~group:false
                ~msg:(Types.pi_message ~seq ~digest) bucket
            with
            | Some pi ->
                sl.exec_proof_sent <- true;
                Hashtbl.replace t.checkpoint_pis seq (pi, digest);
                release_pi_shares sl;
                wal_log t ctx (Sbft_store.Wal.Stable_checkpoint { seq; digest; pi });
                wal_sync t ctx;
                trace t ctx "send:full-execute-proof" (fun () -> Printf.sprintf "seq=%d" seq);
                broadcast_replicas t ctx (Types.Full_execute_proof { seq; digest; pi });
                maybe_send_acks t ctx sl
            | None -> ()
          end
        in
        let stagger = rank * config.Config.collector_stagger in
        if stagger = 0 then act ctx
        else ignore (set_replica_timer t ~after:stagger act)
      end
    end
  end

and maybe_send_acks t ctx sl =
  (* E-collector sends per-client acknowledgements once it both holds
     π(d) and has executed the block itself (proofs come from its own
     authenticated store). *)
  let config = cfg t in
  if
    config.Config.execution_acks && sl.exec_proof_sent && sl.executed
    && not sl.acks_sent
  then begin
    match (Hashtbl.find_opt t.checkpoint_pis sl.seq, sl.committed) with
    | Some (pi, digest), Some reqs ->
        sl.acks_sent <- true;
        List.iteri
          (fun index (r : Types.request) ->
            if r.client >= 0 then begin
              match
                ( Sbft_store.Auth_store.prove_op t.store ~seq:sl.seq ~index,
                  Sbft_store.Auth_store.output_at t.store ~seq:sl.seq ~index )
              with
              | Some proof, Some value ->
                  Priced.merkle_prove ctx ~leaves:(List.length reqs);
                  send t ctx ~dst:r.client
                    (Types.Execute_ack
                       {
                         view = t.view;
                         seq = sl.seq;
                         index;
                         client = r.client;
                         timestamp = r.timestamp;
                         value;
                         state_digest = digest;
                         pi;
                         proof;
                       })
              | _ -> ()
            end)
          reqs
    | _ -> ()
  end

and on_full_execute_proof t ctx ~seq ~digest ~pi ~src =
  if Priced.verify ctx (keys t) (keys t).Keys.pi ~msg:(Types.pi_message ~seq ~digest) pi
  then begin
    Hashtbl.replace t.checkpoint_pis seq (pi, digest);
    Option.iter release_pi_shares (Hashtbl.find_opt t.slots seq);
    wal_log t ctx (Sbft_store.Wal.Stable_checkpoint { seq; digest; pi });
    if seq > t.stable then begin
      t.stable <- seq;
      let candidate = seq - Config.active_window (cfg t) in
      if candidate > t.ls then t.ls <- candidate;
      garbage_collect t
    end;
    Intake.note_progress t.intake ctx;
    (* Fell too far behind the certified execution frontier?  [src]
       certified the state, so probe it first; retries rotate. *)
    if seq > last_executed t + (cfg t).Config.win then
      start_state_transfer t ctx ~target:seq ~first_peer:(Some src)
  end

and garbage_collect t =
  let ci = Config.checkpoint_interval (cfg t) in
  Keys.clear_at_checkpoint (keys t) ~seq:(t.stable / ci * ci);
  let horizon = t.stable - (cfg t).Config.win in
  if horizon > 0 then begin
    let stale =
      List.filter (fun s -> s < horizon)
        (Det.sorted_keys ~compare:Int.compare t.slots)
    in
    List.iter (Hashtbl.remove t.slots) stale;
    let stale_pis =
      List.filter (fun s -> s < horizon)
        (Det.sorted_keys ~compare:Int.compare t.checkpoint_pis)
    in
    List.iter (Hashtbl.remove t.checkpoint_pis) stale_pis;
    Sanitizer.prune_below t.san ~seq:horizon;
    Sbft_store.Block_store.prune_below t.blocks horizon;
    Sbft_store.Auth_store.gc_below t.store ~seq:horizon;
    if (cfg t).Config.durable_wal then
      Sbft_store.Wal.truncate_below t.wal ~seq:horizon
  end

(* Read-only queries (§IV): answered by one replica against its latest
   π-certified state; the client verifies a Merkle proof against the
   threshold-signed digest, so no f+1 agreement is needed. *)
and on_query t ctx ~client ~qid ~query =
  let seq = last_executed t in
  match Hashtbl.find_opt t.checkpoint_pis seq with
  | Some (pi, digest) when String.equal digest (Sbft_store.Auth_store.digest t.store)
    -> (
      match Sbft_store.Auth_store.prove_query t.store ~key:query with
      | Some (value, proof) ->
          Priced.merkle_prove ctx ~leaves:16;
          send t ctx ~dst:client
            (Types.Query_resp { client; qid; seq; digest; pi; value; proof })
      | None -> ())
  | _ -> () (* no certified state to answer from; the client retries *)

(* ------------------------------------------------------------------ *)
(* Block fetch and state transfer *)

and request_block t ctx seq =
  send t ctx ~dst:(primary_of t t.view) (Types.Get_block { seq; replica = t.id })

and on_get_block t ctx ~seq ~replica =
  match Hashtbl.find_opt t.slots seq with
  | Some { pp = Some (view, reqs, _); _ } ->
      send t ctx ~dst:replica (Types.Block_resp { seq; view; reqs })
  | _ -> ()

and on_block_resp t ctx ~seq ~view ~reqs =
  let sl = slot t seq in
  if sl.pp = None then begin
    let h = Priced.block_hash ctx (keys t) ~seq ~view ~reqs in
    sl.pp <- Some (view, reqs, h);
    try_pending_proofs t ctx sl
  end

(* One Get_state in flight at a time.  Each (re)send goes to the next
   peer in a rotation that starts at a random offset, and arms a retry
   timer with exponential backoff; the pending record is cleared when a
   response shows we caught up (or that nobody is ahead), and a failed
   response rotates to the next peer immediately. *)
and send_get_state t ctx st =
  let n = num_replicas t in
  let peer = (t.id + 1 + ((st.st_base + st.st_attempt) mod (n - 1))) mod n in
  send t ctx ~dst:peer (Types.Get_state { upto = st.st_target; replica = t.id });
  let backoff = Config.state_transfer_retry * (1 lsl min 6 st.st_attempt) in
  (match st.st_timer with Some tm -> Engine.cancel_timer tm | None -> ());
  st.st_timer <-
    Some
      (set_replica_timer t ~after:backoff (fun ctx ->
           match t.st with
           | Some st' when st' == st ->
               if st.st_target > last_executed t then begin
                 st.st_attempt <- st.st_attempt + 1;
                 send_get_state t ctx st
               end
               else clear_state_transfer t
           | _ -> ()))

and clear_state_transfer t =
  match t.st with
  | Some st ->
      (match st.st_timer with Some tm -> Engine.cancel_timer tm | None -> ());
      t.st <- None
  | None -> ()

and start_state_transfer t ctx ~target ~first_peer =
  match t.st with
  | Some st -> if target > st.st_target then st.st_target <- target
  | None ->
      let n = num_replicas t in
      let st =
        {
          st_target = target;
          st_base =
            (match first_peer with
            | Some p -> (p - t.id - 1 + n) mod n mod (n - 1)
            | None -> Rng.int (Engine.rng t.env.engine) (n - 1));
          st_attempt = 0;
          st_timer = None;
        }
      in
      t.st <- Some st;
      send_get_state t ctx st

(* A state-transfer response that failed validation: rotate to the next
   peer and retry immediately instead of giving up forever. *)
and state_transfer_failed t ctx =
  t.failures_observed <- true;
  match t.st with
  | Some st ->
      st.st_attempt <- st.st_attempt + 1;
      send_get_state t ctx st
  | None -> ()

and maybe_state_transfer t ctx seq =
  if seq > last_executed t + (cfg t).Config.win then
    start_state_transfer t ctx ~target:seq ~first_peer:None

and on_get_state t ctx ~upto ~replica =
  (* A State_resp carries a full snapshot plus a block suffix — the
     largest message in the protocol — so serving one is paced per
     requester: a quarter of the requester's own retry interval, which
     honest retries (rotation + backoff) never beat but a Get_state
     flood does.  A dropped response heals through the ordinary retry
     timer on the requesting side. *)
  let now = Engine.ctx_now ctx in
  let allow =
    match Hashtbl.find_opt t.st_served replica with
    | Some at -> now - at >= Config.state_transfer_retry / 4
    | None -> true
  in
  if allow then begin
    Hashtbl.replace t.st_served replica now;
    (* The latest π-certified checkpoint, if any.  Without one (early
       in a run, or the π for the latest snapshot never arrived) the
       answer is blocks-only, up to [upto], so a lagging replica still
       catches up: snap_seq = 0 marks that degraded form, and the
       receiver verifies each block and executes strictly in order. *)
    let certified =
      Option.bind (Sbft_store.Block_store.checkpoint t.blocks) (fun cp ->
          Option.map (fun pi -> (cp, pi)) (Hashtbl.find_opt t.checkpoint_pis cp.cp_seq))
    in
    let snapshot, snap_seq, pi, digest, table =
      match certified with
      | Some ({ Sbft_store.Block_store.cp_seq; cp_snapshot; cp_table }, (pi, digest)) ->
          (Lazy.force cp_snapshot, cp_seq, pi, digest, cp_table)
      | None -> ("", 0, Field.zero, "", [])
    in
    (* Serve the blocks after [snap_seq] straight from the persisted
       ledger (contiguous run only: the receiver executes in order
       anyway).  Every served block carries its commit certificate so
       the receiver can verify it before adopting. *)
    let blocks = ref [] in
    let stop = ref false in
    for s = snap_seq + 1 to last_executed t do
      if not !stop then
        match Sbft_store.Block_store.find t.blocks s with
        | Some e -> blocks := e :: !blocks
        | None -> stop := true
    done;
    let blocks = List.rev !blocks in
    if snap_seq > 0 || blocks <> [] then
      let blocks =
        if snap_seq > 0 then blocks
        else List.filter (fun (e : Sbft_store.Block_store.entry) -> e.seq <= upto) blocks
      in
      send t ctx ~dst:replica (Types.State_resp { snapshot; snap_seq; pi; digest; blocks; table })
  end

(* Adopt a state-transferred block suffix.  Every block must carry a
   commit certificate that verifies against its hash — a block that
   fails the check aborts adoption and returns [false] so the caller can
   rotate to another peer.  Verified blocks go through the ordinary
   [commit] path, so they are persisted to this replica's own ledger and
   WAL exactly like locally agreed blocks. *)
and adopt_block_suffix t ctx blocks =
  let ok = ref true in
  List.iter
    (fun ({ seq = s; view; reqs; cert } : Sbft_store.Block_store.entry) ->
      if !ok && Int.equal s (last_executed t + 1) then begin
        let sl = slot t s in
        if sl.committed = None then begin
          let h = Keys.block_hash (keys t) ~seq:s ~view ~reqs in
          if Priced.verify_cert ctx (keys t) ~h cert then commit t ctx sl ~reqs ~view ~h cert
          else ok := false
        end
        else try_execute t ctx
      end)
    blocks;
  !ok

(* Settle an in-flight state transfer after processing a response.
   [ok = false] means the peer provably misbehaved (bad certificate or
   digest): rotate to the next peer immediately.  A valid but
   insufficient answer neither completes nor cancels the transfer — the
   retry timer armed by the last [send_get_state] rotates and re-probes
   with backoff, so a lagging (or Byzantine) peer cannot cancel the
   probe by answering short. *)
and state_transfer_settle t ctx ~ok =
  if not ok then state_transfer_failed t ctx
  else
    match t.st with
    | Some st when st.st_target <= last_executed t -> clear_state_transfer t
    | Some _ | None -> ()

and on_state_resp t ctx ~snapshot ~snap_seq ~pi ~digest ~blocks ~table =
  if snap_seq = 0 then begin
    (* Blocks-only answer from a peer with no certified checkpoint.
       Only accepted while a state transfer is outstanding (an
       unsolicited one is dropped), and every block is verified against
       its commit certificate before adoption. *)
    if t.st <> None then
      let ok = adopt_block_suffix t ctx blocks in
      state_transfer_settle t ctx ~ok
  end
  else if snap_seq > last_executed t then begin
    if Priced.verify ctx (keys t) (keys t).Keys.pi ~msg:(Types.pi_message ~seq:snap_seq ~digest) pi
    then begin
      Priced.hash ctx (String.length snapshot);
      (* Stage-then-swap: the snapshot is parsed and digest-checked in
         scratch storage and installed only when it matches the
         π-certified digest, so a corrupt payload can never clobber the
         live store (it previously loaded first and checked after). *)
      match Sbft_store.Auth_store.load_snapshot_checked t.store snapshot ~expect:digest with
      | Error _ -> state_transfer_failed t ctx
      | Ok () ->
          trace t ctx "state-transfer" (fun () -> Printf.sprintf "to=%d" snap_seq);
          Sanitizer.record_state_transfer t.san ~seq:snap_seq;
          if snap_seq > t.stable then t.stable <- snap_seq;
          if snap_seq > t.ls then t.ls <- snap_seq;
          Hashtbl.replace t.checkpoint_pis snap_seq (pi, digest);
          (* Adopt the sender's client table as of the snapshot: without
             the rows this replica would re-execute retried requests
             (at-most-once violation) once it resumes. *)
          Intake.adopt_rows t.intake table;
          (* Persist the transferred state: the snapshot becomes this
             replica's own durable checkpoint (blocks before it are not
             in our ledger, so recovery must restart from here), and the
             WAL records the certificate + rows. *)
          Sbft_store.Block_store.set_checkpoint t.blocks ~seq:snap_seq
            ~snapshot:(lazy snapshot) ~table;
          Priced.persist ctx (String.length snapshot);
          wal_log t ctx (Sbft_store.Wal.Stable_checkpoint { seq = snap_seq; digest; pi });
          List.iter (fun ce -> wal_log t ctx (Sbft_store.Wal.Client_row ce)) table;
          wal_sync t ctx;
          (* Adopt and replay the suffix, verifying each block's commit
             certificate; then settle (complete, keep retrying, or
             rotate on a bad certificate). *)
          let ok = adopt_block_suffix t ctx blocks in
          state_transfer_settle t ctx ~ok
    end
    else state_transfer_failed t ctx
  end
  else
    (* The peer is no further ahead than we are.  If a transfer is still
       outstanding, leave its retry timer to rotate to the next peer —
       clearing here would let a single lagging (or Byzantine) response
       cancel the probe and strand this replica behind. *)
    state_transfer_settle t ctx ~ok:true

(* ------------------------------------------------------------------ *)
(* View change *)

and build_view_change t =
  let config = cfg t in
  if t.byz = Stale_view_change then
    { Types.vc_replica = t.id; vc_view = t.view; vc_ls = 0; vc_checkpoint = None; vc_slots = [] }
  else begin
    let checkpoint =
      if t.stable = 0 then None
      else
        Hashtbl.find_opt t.checkpoint_pis t.stable
    in
    let base = if checkpoint = None then 0 else t.stable in
    let slots = ref [] in
    for s = base + 1 to base + config.Config.win do
      match Hashtbl.find_opt t.slots s with
      | None -> ()
      | Some { slow = Types.No_commit; fast = Types.No_preprepare; _ } -> ()
      | Some { slow; fast; _ } -> slots := { Types.slot_seq = s; slow; fast } :: !slots
    done;
    {
      Types.vc_replica = t.id;
      vc_view = t.view;
      vc_ls = base;
      vc_checkpoint = checkpoint;
      vc_slots = List.rev !slots;
    }
  end

and start_view_change t ctx ~target_view =
  if target_view > t.sent_vc_for then begin
    t.sent_vc_for <- target_view;
    t.in_view_change <- true;
    t.failures_observed <- true;
    trace t ctx "view-change" (fun () -> Printf.sprintf "to=%d" target_view);
    let vc = { (build_view_change t) with Types.vc_view = target_view - 1 } in
    Priced.rsa_sign ctx;
    (* The vote is a promise not to help the old view: persist it
       before anyone can count it. *)
    wal_log t ctx (Sbft_store.Wal.View_change_started target_view);
    wal_sync t ctx;
    (* Broadcast so that other replicas can join after f+1 complaints. *)
    broadcast_replicas t ctx (Types.View_change vc)
  end

and on_view_change t ctx (vc : Types.view_change) =
  let config = cfg t in
  let target = vc.Types.vc_view + 1 in
  if target <= t.view then begin
    (* Stale complaint — typically a replica that rejoined after losing
       the view change (crash-amnesia or a long partition).  Retransmit
       the self-certifying new-view evidence for our current view so it
       can catch up instead of complaining forever. *)
    match t.last_new_view with
    | Some (v, proofs) when v >= target && not (Int.equal vc.Types.vc_replica t.id) ->
        (* The proof set is 2f+1 view-change messages — without pacing,
           each stale complaint would trigger a large response, a cheap
           amplification vector.  Resend at most once per view per
           complainer, or after a retry interval (so a rejoiner whose
           first copy was lost on a lossy link still recovers). *)
        let now = Engine.ctx_now ctx in
        let allow =
          match Hashtbl.find_opt t.nv_resent vc.Types.vc_replica with
          | Some (v', at) ->
              v > v' || now - at >= Config.state_transfer_retry
          | None -> true
        in
        if allow then begin
          Hashtbl.replace t.nv_resent vc.Types.vc_replica (v, now);
          send t ctx ~dst:vc.Types.vc_replica (Types.New_view { view = v; proofs })
        end
    | _ -> ()
  end
  else begin
    Priced.rsa_verify ctx;
    let tbl =
      match Hashtbl.find_opt t.vc_msgs target with
      | Some tbl -> tbl
      | None ->
          let tbl = Hashtbl.create 16 in
          Hashtbl.replace t.vc_msgs target tbl;
          tbl
    in
    if not (Hashtbl.mem tbl vc.Types.vc_replica) then begin
      Hashtbl.replace tbl vc.Types.vc_replica vc;
      (* Join a view change supported by pi = f+1 distinct replicas:
         at least one is honest, so the complaint is genuine. *)
      let support = Hashtbl.length tbl in
      if support >= Config.pi_threshold config && t.sent_vc_for < target then begin
        Sanitizer.check_quorum t.san Sanitizer.Pi ~count:support;
        start_view_change t ctx ~target_view:target
      end;
      (* The new primary forms the new view at 2f+2c+1 messages. *)
      if
        Int.equal (primary_of t target) t.id
        && support >= Config.quorum_vc config
        && t.view < target
      then begin
        (* Sorted by sender id: which quorum of valid messages the new
           primary keeps must not depend on Hashtbl iteration order. *)
        let msgs = List.map snd (Det.sorted_bindings ~compare:Int.compare tbl) in
        (* Validate, keep a quorum of valid messages. *)
        let valid = Priced.validate_view_changes ctx (keys t) msgs in
        if List.length valid >= Config.quorum_vc config then begin
          let quorum = List.filteri (fun i _ -> i < Config.quorum_vc config) valid in
          Sanitizer.check_quorum t.san Sanitizer.Vc ~count:(List.length quorum);
          trace t ctx "send:new-view" (fun () -> Printf.sprintf "view=%d" target);
          broadcast_replicas t ctx (Types.New_view { view = target; proofs = quorum });
          (* Apply our own new-view synchronously.  Entering [target]
             here (rather than waiting for the self-addressed copy to
             drain through the network) latches [t.view], so every
             later view-change arrival for this view takes the cheap
             stale-complaint path above instead of re-validating and
             re-broadcasting the whole proof set — at n = 193 that
             re-formation is O(n^2) signature checks and delays the
             primary's own view entry past the next view-change
             timeout, wedging the cluster in cascading view changes. *)
          on_new_view t ctx ~view:target ~proofs:quorum
        end
      end
    end
  end

and on_new_view t ctx ~view ~proofs =
  let config = cfg t in
  if view > t.view then begin
    (* Every replica validates the proofs and recomputes the safe values
       for itself; the new-view message is self-certifying. *)
    let valid = Priced.validate_new_view ctx (keys t) proofs in
    if List.length valid >= Config.quorum_vc config then begin
      Sanitizer.check_quorum t.san Sanitizer.Vc ~count:(List.length valid);
      let ls, decisions = View_change.compute ~keys:(keys t) valid in
      (* Keep the evidence for retransmission to stale complainers. *)
      t.last_new_view <- Some (view, valid);
      enter_view t ctx ~view;
      if ls > last_executed t then maybe_state_transfer t ctx (ls + config.Config.win + 1);
      List.iter
        (fun (seq, decision) ->
          if seq > t.ls then begin
            let sl = slot t seq in
            match decision with
            | View_change.Decide { cert; view = pview; reqs } ->
                (* Commit under the certificate the proofs carry
                   (validated with them). *)
                let h = Keys.block_hash (keys t) ~seq ~view:pview ~reqs in
                sl.pp <- Some (pview, reqs, h);
                commit t ctx sl ~reqs ~view:pview ~h cert
            | (View_change.Adopt _ | View_change.Fill_null)
              when sl.committed = None ->
                (* Adopt as a pre-prepare of the new view. *)
                let reqs = View_change.decision_reqs decision in
                let h = Keys.block_hash (keys t) ~seq ~view ~reqs in
                sl.pp <- Some (view, reqs, h);
                promise_block t ctx sl ~view ~reqs ~h ~corrupt:false
            | View_change.Adopt _ | View_change.Fill_null -> ()
          end)
        decisions;
      (* The new primary resumes proposing above the reconciled window. *)
      if Int.equal (primary_of t view) t.id then begin
        let top =
          List.fold_left (fun acc (s, _) -> max acc s) ls decisions
        in
        t.next_seq <- max t.next_seq (top + 1);
        try_propose t ctx
      end
    end
  end

and enter_view t ctx ~view =
  if view > t.view then begin
    Sanitizer.record_view_entry t.san ~view;
    t.view <- view;
    t.in_view_change <- false;
    t.n_view_changes <- t.n_view_changes + 1;
    wal_log t ctx (Sbft_store.Wal.View_entered view);
    wal_sync t ctx;
    Intake.enter_view t.intake ctx;
    Hashtbl.remove t.vc_msgs view;
    (* Fresh view: per-view collection state of open slots resets. *)
    Det.iter_sorted ~compare:Int.compare
      (fun _ sl ->
        if sl.committed = None then begin
          stash_reset sl.sigma_shares;
          stash_reset sl.tau_shares;
          stash_reset sl.commit_shares;
          sl.fast_sent <- false;
          sl.prepare_sent <- false;
          sl.slow_sent <- false;
          sl.sent_sign_share <- false;
          sl.prepare_tau <- None
        end)
      t.slots;
    trace t ctx "new-view" (fun () ->
        Printf.sprintf "view=%d primary=%d" view (primary_of t view));
    (* Re-drive requests that were in flight when the old view died. *)
    Intake.redrive t.intake ~primary:(is_primary t) ~forward:(fun r ->
        send t ctx ~dst:(primary_of t t.view) (Types.Request r));
    if is_primary t then try_propose t ctx
  end

(* ------------------------------------------------------------------ *)
(* Liveness ticker *)

and liveness_tick t ctx =
  if Intake.liveness_due t.intake ctx then
    start_view_change t ctx ~target_view:(max (t.view + 1) (t.sent_vc_for + 1))

let rec arm_liveness t =
  ignore
    (set_replica_timer t ~after:(Config.view_change_timeout / 2) (fun ctx ->
         liveness_tick t ctx;
         arm_liveness t))

let start t ctx =
  Intake.note_progress t.intake ctx;
  arm_liveness t

(* ------------------------------------------------------------------ *)
(* Crash-amnesia recovery.

   Called (by {!Cluster}) on a freshly created replica whose durable
   state — WAL + block store — survived a crash that wiped everything
   else.  Reconstruction order matters:

   1. reload the latest durable checkpoint (service state + client
      table as of the snapshot);
   2. WAL pass one: re-enter the highest logged view, restore
      view-change votes and π-certified checkpoints;
   3. replay the persisted ledger above the checkpoint — the client
      table evolves exactly as it did originally, so duplicate
      suppression replays deterministically and the state digest
      matches what the cluster agreed on;
   4. WAL pass two: restore open-slot promises (re-send the identical
      sign share for an accepted pre-prepare; never re-sign after an
      accepted prepare) and any client rows whose blocks were pruned
      (under conservative rejoin, only rows at or below the executed
      prefix);
   5. rejoin conservatively: probe a peer for missed view changes and
      checkpoints via state transfer, and resume the liveness ticker. *)

let recover t ctx =
  let config = cfg t in
  trace t ctx "recover" (fun () -> "replaying durable state");
  (* A restart is an observed failure: no group-signature optimism. *)
  t.failures_observed <- true;
  (* 1. Durable checkpoint. *)
  (match Sbft_store.Block_store.checkpoint t.blocks with
  | Some { Sbft_store.Block_store.cp_seq; cp_snapshot; cp_table } when cp_seq > 0
    -> (
      let snapshot = Lazy.force cp_snapshot in
      Priced.hash ctx (String.length snapshot);
      match Sbft_store.Auth_store.load_snapshot t.store snapshot with
      | Ok () ->
          Sanitizer.record_state_transfer t.san ~seq:cp_seq;
          if cp_seq > t.ls then t.ls <- cp_seq;
          Intake.adopt_rows t.intake cp_table
      | Error _ -> () (* corrupt local checkpoint: state transfer heals *))
  | _ -> ());
  (* 2. WAL pass one: views and certified checkpoints. *)
  let records =
    if config.Config.durable_wal then Sbft_store.Wal.replay t.wal else []
  in
  let restored_view = ref 0 in
  List.iter
    (fun (r : Sbft_store.Wal.record) ->
      match r with
      | Sbft_store.Wal.View_entered v ->
          if v > !restored_view then restored_view := v
      | Sbft_store.Wal.View_change_started v ->
          if v > t.sent_vc_for then t.sent_vc_for <- v
      | Sbft_store.Wal.Stable_checkpoint { seq; digest; pi } ->
          Hashtbl.replace t.checkpoint_pis seq (pi, digest);
          if seq > t.stable then t.stable <- seq;
          if seq > t.ls then t.ls <- seq
      | _ -> ())
    records;
  if !restored_view > 0 then begin
    Sanitizer.record_view_entry t.san ~view:!restored_view;
    t.view <- !restored_view
  end;
  (* 3. Ledger replay: quiet re-commit + re-execution of the contiguous
     run above the checkpoint (no network sends, no new WAL records).
     The entry's certificate was verified before it was stored, and
     goes back into the slot's view-change report. *)
  let restore_commit seq ({ view; reqs; cert; _ } : Sbft_store.Block_store.entry) =
    let h = Keys.block_hash (keys t) ~seq ~view ~reqs in
    let sl = slot t seq in
    note_committed sl ~view ~reqs cert;
    if sl.committed = None then begin
      Sanitizer.record_commit t.san ~seq ~view ~digest:h;
      sl.pp <- Some (view, reqs, h);
      set_committed sl reqs
    end;
    (sl, reqs)
  in
  let replaying = ref true in
  while !replaying do
    let next = last_executed t + 1 in
    match Sbft_store.Block_store.find t.blocks next with
    | Some e ->
        let sl, reqs = restore_commit next e in
        let outputs = execute_once t ctx sl reqs in
        record_client_rows t ctx ~seq:next reqs outputs ~log:false
    | None -> replaying := false
  done;
  (* Blocks beyond a gap (committed while we were down, fetched before
     the crash): mark committed so execution resumes once state
     transfer fills the gap. *)
  List.iter
    (fun s ->
      if s > last_executed t then
        match Sbft_store.Block_store.find t.blocks s with
        | Some e -> ignore (restore_commit s e)
        | None -> ())
    (Sbft_store.Block_store.sorted_seqs t.blocks);
  (* 4. WAL pass two: open-slot promises and pruned-block client rows. *)
  let promised_seq = ref 0 in
  List.iter
    (fun (r : Sbft_store.Wal.record) ->
      match r with
      | Sbft_store.Wal.Client_row ce ->
          (* A conservative rejoin leaves rows above the executed
             prefix to re-execution.  After a rollback their blocks'
             ledger is gone; adopting the rows would turn the requests
             into no-ops when state transfer re-executes those blocks,
             and the store would lag the client table.  Eager rejoin
             adopts them: it is the rollback baseline. *)
          let ahead = config.Config.conservative_rejoin && ce.ce_seq > last_executed t in
          if
            (not ahead)
            && not (Intake.executed_before t.intake ~client:ce.ce_client ~timestamp:ce.ce_timestamp)
          then Intake.add_row t.intake ce
      | Sbft_store.Wal.Accepted_pre_prepare { seq; view; reqs } ->
          if seq > !promised_seq then promised_seq := seq;
          if Int.equal view t.view && seq > last_executed t then begin
            let sl = slot t seq in
            if sl.pp = None && sl.committed = None then begin
              let h = Keys.block_hash (keys t) ~seq ~view ~reqs in
              sl.pp <- Some (view, reqs, h);
              (* Honour the logged promise by re-issuing the identical
                 (deterministic) sign share — safe, and keeps the slot
                 live rather than silently abstaining. *)
              send_sign_shares t ctx ~seq ~view
                (sign_block t ctx sl ~view ~reqs ~h ~corrupt:false)
            end
          end
      | Sbft_store.Wal.Accepted_prepare { seq; view; tau } ->
          if Int.equal view t.view && seq > last_executed t then begin
            let sl = slot t seq in
            (* We promised a commit share: restore the prepare report
               for view changes and never sign a conflicting block, but
               do not re-sign (the exact share already went out, or was
               lost with the unsynced send — either is safe). *)
            sl.prepare_tau <- Some tau;
            match sl.pp with
            | Some (v, reqs, _) when Int.equal v view ->
                note_prepared sl (Types.Slow_prepared { tau; view; reqs })
            | _ -> ()
          end
      | _ -> ())
    records;
  (* 5. Conservative rejoin. *)
  t.next_seq <-
    max t.next_seq (max (Sbft_store.Block_store.highest t.blocks) !promised_seq + 1);
  Intake.note_progress t.intake ctx;
  arm_liveness t;
  if config.Config.conservative_rejoin then begin
    (* Probe for whatever we missed while down (newer checkpoints, view
       changes); peers answer blocks-only when they have no checkpoint,
       and stale view-change complaints trigger new-view retransmission.
       This probing is the software stand-in for the trusted monotonic
       counters hardware-assisted BFT uses against rollback attacks: a
       replica restarted from a stale durable prefix re-certifies where
       the cluster actually is before its forgotten promises can be
       leveraged.  [conservative_rejoin = false] is the eager-rejoin
       baseline the rollback corpus twins must defeat. *)
    start_state_transfer t ctx
      ~target:(last_executed t + config.Config.win + 1)
      ~first_peer:None;
    (* View-discovery probe: a view-change vote for the view we are
       already in.  Peers at our view or ahead see it as stale and answer
       with their stored new-view evidence (the on_view_change stale
       branch); peers behind us count it as a legitimate vote toward the
       view we genuinely occupy.  Either way it casts no ballot toward
       any NEWER view, so a healthy cluster cannot be destabilised by a
       rejoining replica.  Without this, a replica that slept through a
       view change and returns to an idle cluster would wait in its old
       view forever (state transfer moves data, not views). *)
    Priced.rsa_sign ctx;
    let probe = { (build_view_change t) with Types.vc_view = t.view - 1 } in
    broadcast_replicas t ctx (Types.View_change probe)
  end;
  trace t ctx "recovered" (fun () ->
      Printf.sprintf "view=%d le=%d stable=%d" t.view (last_executed t) t.stable)
