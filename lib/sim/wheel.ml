(* The engine's event queue: a 4-ary min-heap ordered by (key0, key1).

   Entries live in three parallel arrays, key0, key1 and value, so a
   sift moves two ints and one pointer per level and never builds an
   entry record.  A pop hands back the value alone; the caller reads
   [min_key0] first, so the event loop allocates nothing per event.
   Four children per node halve the depth of a binary heap, and the
   four sibling keys sit side by side in one array.

   The order is total: the engine's key1 is a sequence number that is
   never reused, so no two entries compare equal and the pop sequence
   is a function of the keys alone, whatever the push order, the array
   layout or the compactions in between.  That is what keeps the replay
   digests (R8) fixed.

   Cancellation is a predicate, not a handle: [compact] keeps the
   entries the caller still wants, in place, and re-heapifies.  The
   engine calls it when cancelled timers outnumber live events (see
   Engine.cancel_timer).

   Slots past the last entry hold [dummy], never a popped or dropped
   value, so the queue keeps no finished event's closure alive. *)

type 'a t = {
  mutable k0 : int array;
  mutable k1 : int array;
  mutable vs : 'a array;
  mutable len : int;
  dummy : 'a;
}

let create ~dummy = { k0 = [||]; k1 = [||]; vs = [||]; len = 0; dummy }
let size t = t.len
let min_key0 t = if t.len = 0 then max_int else t.k0.(0)

(* Place the entry (a0, a1, v) at hole [i] or below it, moving smaller
   children up, among the first [t.len] slots. *)
let sift_down t i a0 a1 v =
  let k0 = t.k0 and k1 = t.k1 and vs = t.vs and n = t.len in
  let i = ref i and continue = ref true in
  while !continue do
    let c = (4 * !i) + 1 in
    if c >= n then continue := false
    else begin
      let m = ref c in
      let last = if c + 3 < n then c + 3 else n - 1 in
      for j = c + 1 to last do
        if k0.(j) < k0.(!m) || (k0.(j) = k0.(!m) && k1.(j) < k1.(!m)) then m := j
      done;
      let m = !m in
      if k0.(m) < a0 || (k0.(m) = a0 && k1.(m) < a1) then begin
        k0.(!i) <- k0.(m);
        k1.(!i) <- k1.(m);
        vs.(!i) <- vs.(m);
        i := m
      end
      else continue := false
    end
  done;
  k0.(!i) <- a0;
  k1.(!i) <- a1;
  vs.(!i) <- v

let grow t =
  let cap = if t.len = 0 then 64 else 2 * t.len in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.len;
    b
  in
  t.k0 <- extend t.k0 0;
  t.k1 <- extend t.k1 0;
  t.vs <- extend t.vs t.dummy

let push t ~key0 ~key1 v =
  if t.len = Array.length t.k0 then grow t;
  let k0 = t.k0 and k1 = t.k1 and vs = t.vs in
  (* Sift up: move parents down into the hole until (key0, key1) fits. *)
  let i = ref t.len in
  t.len <- t.len + 1;
  while
    !i > 0
    &&
    let p = (!i - 1) / 4 in
    key0 < k0.(p) || (key0 = k0.(p) && key1 < k1.(p))
  do
    let p = (!i - 1) / 4 in
    k0.(!i) <- k0.(p);
    k1.(!i) <- k1.(p);
    vs.(!i) <- vs.(p);
    i := p
  done;
  k0.(!i) <- key0;
  k1.(!i) <- key1;
  vs.(!i) <- v

let pop t =
  if t.len = 0 then invalid_arg "Wheel.pop: empty";
  let v = t.vs.(0) in
  let n = t.len - 1 in
  t.len <- n;
  let last = t.vs.(n) in
  t.vs.(n) <- t.dummy;
  if n > 0 then sift_down t 0 t.k0.(n) t.k1.(n) last;
  v

let compact t ~dead =
  let k0 = t.k0 and k1 = t.k1 and vs = t.vs in
  let n = ref 0 in
  for i = 0 to t.len - 1 do
    if not (dead vs.(i)) then begin
      k0.(!n) <- k0.(i);
      k1.(!n) <- k1.(i);
      vs.(!n) <- vs.(i);
      incr n
    end
  done;
  Array.fill vs !n (t.len - !n) t.dummy;
  t.len <- !n;
  (* Floyd's heapify: sift every parent down, deepest first. *)
  for i = ((!n + 2) / 4) - 1 downto 0 do
    sift_down t i k0.(i) k1.(i) vs.(i)
  done
