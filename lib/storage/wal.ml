(* Simulated write-ahead log.

   Replicas append protocol-critical transitions (view entries, accepted
   pre-prepares/prepares, commit certificates, stable checkpoints,
   client-table rows) and group-commit them with [sync]: appends land in
   a pending list and only become durable once synced, so a
   crash-amnesia restart loses exactly the unsynced tail — the same
   window a real fsync-based log exposes.

   The log is byte-faithful without building bytes on the write path.
   It keeps the records themselves plus an exact byte count: [append]
   sizes a record's frame (varint length + FNV-1a checksum + payload)
   by arithmetic, so appends and syncs neither encode, checksum nor
   copy.  [replay] frames the durable records into the log's byte image
   and parses it back, checksums and all, so recovery exercises the
   real byte path and its torn-tail handling.  Compaction and rollback
   work on the record list directly, which is the same as going through
   the bytes because a record and its parsed copy have the same frame.
   The copy differs in one way: a request's client signature is not
   logged (the accepted block's promise stands in for it), so parsed
   requests carry [signature = ""].  [corrupt_tail] is the one way raw
   bytes enter the log: while torn bytes are present, every path goes
   through the byte image.

   This module is pure storage: it never touches the simulator clock.
   Callers charge [Cost_model.wal_append]/[wal_fsync] for the bytes and
   syncs it reports. *)

open Sbft_crypto
open Sbft_wire

type record =
  | View_entered of int
  | View_change_started of int
  | Accepted_pre_prepare of { seq : int; view : int; reqs : Block_store.request list }
  | Accepted_prepare of { seq : int; view : int; tau : Field.t }
  | Commit_cert of { seq : int; view : int; fast : bool }
  | Stable_checkpoint of { seq : int; digest : string; pi : Field.t }
  | Client_row of Block_store.client_entry

type t = {
  mutable torn : string;
      (** raw bytes at the head of the durable log: [""] unless
          {!corrupt_tail} has put bytes there that no record stands for *)
  mutable durable : record list;
      (** synced records after [torn], newest first; survives
          crash-amnesia *)
  mutable durable_len : int;
      (** bytes of [torn] plus the frames of [durable] *)
  mutable pending : record list;
      (** records appended but not yet synced, newest first; lost on
          crash *)
  mutable pending_len : int;
  mutable appends : int;
  mutable syncs : int;
  mutable trunc_seq : int;
      (** logical truncation horizon: records below it are dead and
          filtered out of {!replay}, whether or not they have been
          physically dropped yet *)
  mutable compact_watermark : int;
      (** durable size (bytes) at which the next {!truncate_below}
          physically rewrites the log; doubling it after each rewrite
          keeps compaction O(1) amortized per appended byte even when
          the horizon advances every slot *)
}

let initial_watermark = 1 lsl 16

let create () =
  {
    torn = "";
    durable = [];
    durable_len = 0;
    pending = [];
    pending_len = 0;
    appends = 0;
    syncs = 0;
    trunc_seq = 0;
    compact_watermark = initial_watermark;
  }

(* Signed ints (client ids can be -1 for null-request fillers) go
   through a zigzag varint so the codec only ever sees naturals.  A
   value whose doubling overflows zigzags to a negative, which the
   codec rejects, except [min_int asr 1], which lands on [max_int];
   [zag] is the exact inverse there too. *)
let zigzag v = if v >= 0 then 2 * v else (-2 * v) - 1
let zig w v = Codec.Writer.varint w (zigzag v)

let zag r =
  let v = Codec.Reader.varint r in
  (v lsr 1) lxor -(v land 1)

(* Encoded sizes, computed without encoding.  [varint_len] rejects
   negatives exactly as [Codec.Writer.varint] does, so [frame_len]
   raises exactly when [frame] would. *)
let varint_len v =
  if v < 0 then invalid_arg "Codec.varint: negative";
  let rec go n v = if v < 0x80 then n else go (n + 1) (v lsr 7) in
  go 1 v

let zig_len v = varint_len (zigzag v)
let str_len s = varint_len (String.length s) + String.length s

(* A field element is logged as the string of its 8-byte encoding: a
   length byte, then the 8 bytes. *)
let field_len = 9
let field w x = Codec.Writer.str w (Field.to_bytes x)

exception Malformed

(* The bytes come from the simulated disk: a field string of any other
   length is no encoding, and [parse] stops at its frame as at a torn
   one ([Field.of_bytes] would raise on a short string). *)
let unfield r =
  let s = Codec.Reader.str r in
  if String.length s <> 8 then raise Malformed;
  Field.of_bytes s

let payload_len = function
  | View_entered v | View_change_started v -> 1 + zig_len v
  | Accepted_pre_prepare { seq; view; reqs } ->
      List.fold_left
        (fun n { Block_store.client; timestamp; op; signature = _ } ->
          n + zig_len client + zig_len timestamp + str_len op)
        (1 + zig_len seq + zig_len view + varint_len (List.length reqs))
        reqs
  | Accepted_prepare { seq; view; tau = _ } -> 1 + zig_len seq + zig_len view + field_len
  | Commit_cert { seq; view; fast = _ } -> 2 + zig_len seq + zig_len view
  | Stable_checkpoint { seq; digest; pi = _ } -> 1 + zig_len seq + str_len digest + field_len
  | Client_row { ce_client; ce_timestamp; ce_value; ce_seq; ce_index } ->
      1 + zig_len ce_client + zig_len ce_timestamp + str_len ce_value + zig_len ce_seq
      + zig_len ce_index

let frame_len record =
  let n = payload_len record in
  varint_len n + 4 + n

let payload record =
  let w = Codec.Writer.create ~size:(payload_len record) () in
  (match record with
  | View_entered v ->
      Codec.Writer.u8 w 1;
      zig w v
  | View_change_started v ->
      Codec.Writer.u8 w 2;
      zig w v
  | Accepted_pre_prepare { seq; view; reqs } ->
      Codec.Writer.u8 w 3;
      zig w seq;
      zig w view;
      Codec.Writer.list w
        (fun { Block_store.client; timestamp; op; signature = _ } ->
          zig w client;
          zig w timestamp;
          Codec.Writer.str w op)
        reqs
  | Accepted_prepare { seq; view; tau } ->
      Codec.Writer.u8 w 4;
      zig w seq;
      zig w view;
      field w tau
  | Commit_cert { seq; view; fast } ->
      Codec.Writer.u8 w 5;
      zig w seq;
      zig w view;
      Codec.Writer.u8 w (if fast then 1 else 0)
  | Stable_checkpoint { seq; digest; pi } ->
      Codec.Writer.u8 w 6;
      zig w seq;
      Codec.Writer.str w digest;
      field w pi
  | Client_row { ce_client; ce_timestamp; ce_value; ce_seq; ce_index } ->
      Codec.Writer.u8 w 7;
      zig w ce_client;
      zig w ce_timestamp;
      Codec.Writer.str w ce_value;
      zig w ce_seq;
      zig w ce_index);
  w

let parse_payload r =
  match Codec.Reader.u8 r with
  | 1 -> Some (View_entered (zag r))
  | 2 -> Some (View_change_started (zag r))
  | 3 ->
      let seq = zag r in
      let view = zag r in
      let reqs =
        Codec.Reader.list r (fun r ->
            let client = zag r in
            let timestamp = zag r in
            let op = Codec.Reader.str r in
            { Block_store.client; timestamp; op; signature = "" })
      in
      Some (Accepted_pre_prepare { seq; view; reqs })
  | 4 ->
      let seq = zag r in
      let view = zag r in
      let tau = unfield r in
      Some (Accepted_prepare { seq; view; tau })
  | 5 ->
      let seq = zag r in
      let view = zag r in
      let fast = Codec.Reader.u8 r = 1 in
      Some (Commit_cert { seq; view; fast })
  | 6 ->
      let seq = zag r in
      let digest = Codec.Reader.str r in
      let pi = unfield r in
      Some (Stable_checkpoint { seq; digest; pi })
  | 7 ->
      let ce_client = zag r in
      let ce_timestamp = zag r in
      let ce_value = Codec.Reader.str r in
      let ce_seq = zag r in
      let ce_index = zag r in
      Some (Client_row { ce_client; ce_timestamp; ce_value; ce_seq; ce_index })
  | _ -> None

(* FNV-1a over [len] bytes of [b] from [pos], folded to 32 bits.  The
   low 32 bits of a xor or a product depend only on the low 32 bits of
   the operands, so masking once at the end gives the same value as
   masking after every byte.  The running hash is an unboxed nativeint,
   which keeps OCaml's int tagging out of the loop's serial xor-multiply
   chain. *)
let fnv1a b ~pos ~len =
  let h = ref 0x811C9DC5n in
  for i = pos to pos + len - 1 do
    h :=
      Nativeint.mul
        (Nativeint.logxor !h (Nativeint.of_int (Char.code (Bytes.unsafe_get b i))))
        0x01000193n
  done;
  Nativeint.to_int !h land 0xFFFFFFFF

let checksum s = fnv1a (Bytes.unsafe_of_string s) ~pos:0 ~len:(String.length s)

(* Header and payload go straight into the frame's bytes: one copy of
   the payload, checksummed where it lands. *)
let frame record =
  let p = payload record in
  let len = Codec.Writer.length p in
  let hdr = Codec.Writer.create ~size:16 () in
  Codec.Writer.varint hdr len;
  let pos = Codec.Writer.length hdr + 4 in
  let b = Bytes.create (pos + len) in
  Codec.Writer.blit hdr b ~pos:0;
  Codec.Writer.blit p b ~pos;
  Bytes.set_int32_be b (pos - 4) (Int32.of_int (fnv1a b ~pos ~len));
  Bytes.unsafe_to_string b

(* Appends keep the record itself: its size is exact arithmetic, and
   its bytes are built only when something reads the log. *)
let append t record =
  let len = frame_len record in
  t.pending <- record :: t.pending;
  t.pending_len <- t.pending_len + len;
  t.appends <- t.appends + 1;
  len

let dirty t = t.pending_len > 0

let drop_pending t =
  t.pending <- [];
  t.pending_len <- 0

let sync t =
  if dirty t then begin
    t.durable <- t.pending @ t.durable;
    t.durable_len <- t.durable_len + t.pending_len;
    drop_pending t;
    t.syncs <- t.syncs + 1;
    true
  end
  else false

(* The durable log's byte image: any torn head, then each record's
   frame in append order. *)
let durable_image t = String.concat "" (t.torn :: List.rev_map frame t.durable)

(* Decode a byte image, stopping at the first truncated,
   checksum-failing or undecodable frame. *)
let parse bytes =
  let r = Codec.Reader.of_string bytes in
  let out = ref [] in
  (try
     let stop = ref false in
     while (not !stop) && not (Codec.Reader.at_end r) do
       let len = Codec.Reader.varint r in
       let sum = Codec.Reader.u32 r in
       let p = Codec.Reader.raw r len in
       if sum <> checksum p then stop := true
       else
         match parse_payload (Codec.Reader.of_string p) with
         | Some record -> out := record :: !out
         | None | (exception Malformed) -> stop := true
     done
   with Codec.Reader.Truncated -> ());
  List.rev !out

(* The durable records in append order.  A record and its parsed copy
   have the same frame, so the byte route is needed only while torn
   bytes are present. *)
let durable_records t =
  if String.equal t.torn "" then List.rev t.durable else parse (durable_image t)

(* Replace the durable log by [records], in append order. *)
let rewrite_durable t records =
  t.torn <- "";
  t.durable <- List.rev records;
  t.durable_len <- List.fold_left (fun n r -> n + frame_len r) 0 records

let record_seq = function
  | View_entered _ | View_change_started _ -> None
  | Accepted_pre_prepare { seq; _ }
  | Accepted_prepare { seq; _ }
  | Commit_cert { seq; _ }
  | Stable_checkpoint { seq; _ }
  | Client_row { ce_seq = seq; _ } ->
      Some seq

(* Checkpoint compaction filter: everything below [seq] is captured by
   the stable checkpoint, except view records (always retained, latest
   wins at replay) and the latest [Stable_checkpoint] at or below [seq]
   (the first of equals), which moves to the front.  Shared by [replay]
   and the physical rewrite so the replayed history is identical whether
   or not the dead prefix has been dropped from the log yet.  The
   checkpoint is found by position, not physical identity, so a record
   value appended twice compacts as its parsed copies would. *)
let compact_records ~seq records =
  if seq <= 0 then records
  else begin
    let cp_at = ref (-1) and cp_seq = ref 0 in
    List.iteri
      (fun i r ->
        match r with
        | Stable_checkpoint { seq = s; _ } when s <= seq && (!cp_at < 0 || s > !cp_seq)
          ->
            cp_at := i;
            cp_seq := s
        | _ -> ())
      records;
    let kept =
      List.filteri
        (fun i r ->
          i <> !cp_at
          && match record_seq r with None -> true | Some s -> s >= seq)
        records
    in
    if !cp_at < 0 then kept else List.nth records !cp_at :: kept
  end

(* Only the synced prefix exists after a crash, so only it replays.
   Recovery goes through the byte image, checksums and all. *)
let replay t = compact_records ~seq:t.trunc_seq (parse (durable_image t))

(* Logical truncation is just a horizon bump; the O(log-size) physical
   rewrite runs only once the durable log outgrows its watermark.
   Callers may therefore truncate on every stable-checkpoint advance
   without turning the log into an O(n^2) hot spot (it did: at paper
   scale every certified slot rewrote every replica's full log). *)
let truncate_below t ~seq =
  if seq > t.trunc_seq then t.trunc_seq <- seq;
  if t.durable_len >= t.compact_watermark then begin
    rewrite_durable t (compact_records ~seq:t.trunc_seq (durable_records t));
    t.compact_watermark <- max initial_watermark (2 * t.durable_len)
  end

let durable_bytes t = t.durable_len
let appends t = t.appends
let syncs t = t.syncs

let reset t =
  rewrite_durable t [];
  drop_pending t;
  t.appends <- 0;
  t.syncs <- 0;
  t.trunc_seq <- 0;
  t.compact_watermark <- initial_watermark

(* Rollback-attack helper (schedule fuzzer): restore the stale durable
   prefix ending at the newest Stable_checkpoint whose seq is at most
   [before] — the state an attacker gets by re-imaging a replica's disk
   from an old backup.  Every later record disappears, including view
   records and Accepted_* promises logged after the checkpoint, so the
   restarted replica resurrects pre-view-change state and forgets
   prepare promises the network already acted on.  The kept prefix is
   internally consistent (it is exactly what the log held when that
   checkpoint was synced).  Returns the checkpoint seq kept, or 0 when
   no checkpoint qualifies (the log rolls back to empty — a factory
   restore). *)
let rollback_to_checkpoint t ~before =
  drop_pending t;
  let records = durable_records t in
  let cut = ref (-1) in
  let cp = ref 0 in
  List.iteri
    (fun i r ->
      match r with
      | Stable_checkpoint { seq; _ } when seq <= before && seq >= !cp ->
          cut := i;
          cp := seq
      | _ -> ())
    records;
  rewrite_durable t (List.filteri (fun i _ -> i <= !cut) records);
  t.trunc_seq <- 0;
  t.compact_watermark <- max initial_watermark (2 * t.durable_len);
  !cp

(* Test helper: simulate a torn write by overwriting the last [bytes]
   durable bytes with garbage.  The log keeps the result as raw bytes
   until a rewrite parses it back into records. *)
let corrupt_tail t ~bytes =
  let s = durable_image t in
  let n = String.length s in
  let k = min bytes n in
  t.torn <- String.sub s 0 (n - k) ^ String.make k '\xFF';
  t.durable <- []
