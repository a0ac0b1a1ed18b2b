type request = Sbft_core.Types.request

type msg =
  | Request of request
  | Pre_prepare of { seq : int; view : int; reqs : request list }
  | Prepare of { seq : int; view : int; h : string; replica : int }
  | Commit of { seq : int; view : int; h : string; replica : int }
  | Reply of {
      view : int;
      replica : int;
      client : int;
      timestamp : int;
      seq : int;
      value : string;
    }
  | Checkpoint of { seq : int; digest : string; replica : int }
  | View_change of {
      view : int;
      ls : int;
      prepared : (int * int * request list) list;
      replica : int;
    }
  | New_view of { view : int; pre_prepares : (int * request list) list }

let header = 24
let rsa = Sbft_crypto.Pki.signature_size

let size = function
  | Request r -> Sbft_core.Types.requests_bytes [ r ]
  | Pre_prepare { reqs; _ } -> header + Sbft_core.Types.requests_bytes reqs + rsa
  | Prepare _ | Commit _ -> header + 32 + rsa
  | Reply { value; _ } -> header + String.length value + rsa
  | Checkpoint _ -> header + 32 + rsa
  | View_change { prepared; _ } ->
      List.fold_left
        (fun acc (_, _, reqs) -> acc + 16 + 32 + Sbft_core.Types.requests_bytes reqs)
        (header + rsa) prepared
  | New_view { pre_prepares; _ } ->
      List.fold_left
        (fun acc (_, reqs) -> acc + 16 + Sbft_core.Types.requests_bytes reqs)
        (header + rsa) pre_prepares

let kind = function
  | Request _ -> "request"
  | Pre_prepare _ -> "pre-prepare"
  | Prepare _ -> "prepare"
  | Commit _ -> "commit"
  | Reply _ -> "reply"
  | Checkpoint _ -> "checkpoint"
  | View_change _ -> "view-change"
  | New_view _ -> "new-view"
