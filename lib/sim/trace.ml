type record = { time : Engine.time; node : int; kind : string; detail : string }

type t = { on : bool; mutable recs : record list }

let create ?(enabled = false) () = { on = enabled; recs = [] }

let emit t ~time ~node ~kind ~detail =
  if t.on then t.recs <- { time; node; kind; detail = detail () } :: t.recs

let records t = List.rev t.recs

let pp_record fmt r =
  Format.fprintf fmt "%10.3fms node=%-3d %-24s %s" (Engine.to_ms r.time) r.node
    r.kind r.detail
