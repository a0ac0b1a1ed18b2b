(* The engine's event queue: a 4-ary min-heap ordered by (key0, key1).

   The heap itself holds ints only: per position its two keys and the
   index of its value's slot in a slab.  A sift moves three ints per
   level and writes no pointer, so it pays no write barrier
   ([caml_modify]); the value is written once into its slab slot on
   push and read once on pop.  Free slab slots form a stack.  The caller
   reads [min_key0] before [pop], so the event loop allocates nothing
   per event.  Four children per node halve the depth of a binary heap,
   and the four sibling keys sit side by side in one array.

   The order is total: the engine's key1 is a sequence number that is
   never reused, so no two entries compare equal and the pop sequence
   is a function of the keys alone, whatever the push order, the array
   layout, the slab slots or the compactions in between.  That is what
   keeps the replay digests (R8) fixed.

   Cancellation is a predicate, not a handle: [compact] keeps the
   entries the caller still wants, in place, and re-heapifies.  The
   engine calls it when cancelled timers outnumber live events (see
   Engine.cancel_timer).

   Free slab slots hold [dummy], never a popped or dropped value, so the
   queue keeps no finished event's closure alive. *)

type 'a t = {
  mutable k0 : int array;
  mutable k1 : int array;
  mutable slot : int array; (* heap position -> slab slot *)
  mutable vs : 'a array; (* the slab *)
  mutable free : int array; (* free slab slots, a stack *)
  mutable nfree : int;
  mutable len : int;
  dummy : 'a;
}

let create ~dummy =
  { k0 = [||]; k1 = [||]; slot = [||]; vs = [||]; free = [||]; nfree = 0; len = 0; dummy }

let size t = t.len
let min_key0 t = if t.len = 0 then max_int else t.k0.(0)

(* Place the entry (a0, a1, s) at hole [i] or below it, moving smaller
   children up, among the first [t.len] positions. *)
let sift_down t i a0 a1 s =
  let k0 = t.k0 and k1 = t.k1 and slot = t.slot and n = t.len in
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
        slot.(!i) <- slot.(m);
        i := m
      end
      else continue := false
    end
  done;
  k0.(!i) <- a0;
  k1.(!i) <- a1;
  slot.(!i) <- s

(* Only called when every slab slot is in use (len = capacity, so the
   free stack is empty): the new slots become the free stack. *)
let grow t =
  let old = t.len in
  let cap = if old = 0 then 64 else 2 * old in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 old;
    b
  in
  t.k0 <- extend t.k0 0;
  t.k1 <- extend t.k1 0;
  t.slot <- extend t.slot 0;
  t.vs <- extend t.vs t.dummy;
  t.free <- Array.init cap (fun i -> cap - 1 - i);
  t.nfree <- cap - old

let push t ~key0 ~key1 v =
  if t.nfree = 0 then grow t;
  t.nfree <- t.nfree - 1;
  let s = t.free.(t.nfree) in
  t.vs.(s) <- v;
  let k0 = t.k0 and k1 = t.k1 and slot = t.slot in
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
    slot.(!i) <- slot.(p);
    i := p
  done;
  k0.(!i) <- key0;
  k1.(!i) <- key1;
  slot.(!i) <- s

let release t s =
  t.vs.(s) <- t.dummy;
  t.free.(t.nfree) <- s;
  t.nfree <- t.nfree + 1

let pop t =
  if t.len = 0 then invalid_arg "Wheel.pop: empty";
  let s = t.slot.(0) in
  let v = t.vs.(s) in
  release t s;
  let n = t.len - 1 in
  t.len <- n;
  if n > 0 then sift_down t 0 t.k0.(n) t.k1.(n) t.slot.(n);
  v

let compact t ~dead =
  let k0 = t.k0 and k1 = t.k1 and slot = t.slot in
  let n = ref 0 in
  for i = 0 to t.len - 1 do
    let s = slot.(i) in
    if dead t.vs.(s) then release t s
    else begin
      k0.(!n) <- k0.(i);
      k1.(!n) <- k1.(i);
      slot.(!n) <- s;
      incr n
    end
  done;
  t.len <- !n;
  (* Floyd's heapify: sift every parent down, deepest first. *)
  for i = ((!n + 2) / 4) - 1 downto 0 do
    sift_down t i k0.(i) k1.(i) slot.(i)
  done
