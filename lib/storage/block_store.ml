open Sbft_crypto

type request = { client : int; timestamp : int; op : string; signature : Pki.signature }

type cert = Cert_fast of Field.t | Cert_slow of Field.t * Field.t

type entry = { seq : int; view : int; reqs : request list; cert : cert }

type client_entry = {
  ce_client : int;
  ce_timestamp : int;
  ce_value : string;
  ce_seq : int;
  ce_index : int;
}

type checkpoint = {
  cp_seq : int;
  cp_snapshot : string Lazy.t;
  cp_table : client_entry list;
}

type t = {
  blocks : (int, entry) Hashtbl.t;
  mutable highest : int;
  mutable checkpoint : checkpoint option;
}

let create () = { blocks = Hashtbl.create 256; highest = 0; checkpoint = None }

let add t e =
  if not (Hashtbl.mem t.blocks e.seq) then begin
    Hashtbl.replace t.blocks e.seq e;
    if e.seq > t.highest then t.highest <- e.seq
  end

let find t seq = Hashtbl.find_opt t.blocks seq
let highest t = t.highest

let sorted_seqs t =
  Hashtbl.fold (fun s _ acc -> s :: acc) t.blocks [] |> List.sort Int.compare

let prune_below t seq =
  let stale =
    Hashtbl.fold (fun s _ acc -> if s < seq then s :: acc else acc) t.blocks []
    |> List.sort Int.compare
  in
  List.iter (Hashtbl.remove t.blocks) stale

(* Rollback-attack counterpart of {!Wal.rollback_to_checkpoint}: erase
   every block above [above] and any newer checkpoint, as a stale disk
   restore would. *)
let rollback t ~above =
  let doomed =
    Hashtbl.fold (fun s _ acc -> if s > above then s :: acc else acc) t.blocks []
    |> List.sort Int.compare
  in
  List.iter (Hashtbl.remove t.blocks) doomed;
  t.highest <- Hashtbl.fold (fun s _ acc -> max s acc) t.blocks 0;
  match t.checkpoint with
  | Some { cp_seq; _ } when cp_seq > above -> t.checkpoint <- None
  | _ -> ()

let set_checkpoint t ~seq ~snapshot ~table =
  match t.checkpoint with
  | Some { cp_seq; _ } when cp_seq >= seq -> ()
  | _ -> t.checkpoint <- Some { cp_seq = seq; cp_snapshot = snapshot; cp_table = table }

let checkpoint t = t.checkpoint

(* A field element counts as the 8 bytes of its encoding. *)
let entry_size e =
  let cert_size = match e.cert with Cert_fast _ -> 8 | Cert_slow _ -> 16 in
  List.fold_left (fun acc r -> acc + String.length r.op + 20) (16 + cert_size) e.reqs
