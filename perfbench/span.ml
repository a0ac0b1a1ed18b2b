(* Host-time spans recorded by the benchmark around its calls into each
   layer.  Spans nest through a depth-indexed stack, so a span's self
   time is its duration minus the part covered by its child spans.
   Aggregates per name stay in memory and are read once the run ends. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type agg = { name : string; mutable self_ns : int; mutable calls : int }

let table : (string, agg) Hashtbl.t = Hashtbl.create 64

let agg name =
  match Hashtbl.find_opt table name with
  | Some a -> a
  | None ->
      let a = { name; self_ns = 0; calls = 0 } in
      Hashtbl.replace table name a;
      a

(* [child_ns.(d)] accumulates the durations of the finished children of
   the open span at depth [d]. *)
let max_depth = 256
let child_ns = Array.make max_depth 0
let depth = ref 0

let close a d t0 =
  let dur = now_ns () - t0 in
  depth := d;
  a.self_ns <- a.self_ns + dur - child_ns.(d);
  a.calls <- a.calls + 1;
  if d > 0 then child_ns.(d - 1) <- child_ns.(d - 1) + dur

let run a f =
  let d = !depth in
  if d >= max_depth then invalid_arg "Span.run: spans nested too deeply";
  child_ns.(d) <- 0;
  depth := d + 1;
  let t0 = now_ns () in
  match f () with
  | r ->
      close a d t0;
      r
  | exception e ->
      close a d t0;
      raise e

let self_s name =
  match Hashtbl.find_opt table name with
  | Some a -> float_of_int a.self_ns /. 1e9
  | None -> 0.

let calls name =
  match Hashtbl.find_opt table name with Some a -> a.calls | None -> 0

(* Self time and calls summed over the spans [prefix ^ k] for every [k]
   not in [named]. *)
let others ~prefix ~named =
  let plen = String.length prefix in
  Hashtbl.fold
    (fun name a (s, c) ->
      if
        String.length name > plen
        && String.equal (String.sub name 0 plen) prefix
        && not (List.mem (String.sub name plen (String.length name - plen)) named)
      then (s +. (float_of_int a.self_ns /. 1e9), c + a.calls)
      else (s, c))
    table (0., 0)

let total_self_s () =
  Hashtbl.fold (fun _ a acc -> acc +. (float_of_int a.self_ns /. 1e9)) table 0.
