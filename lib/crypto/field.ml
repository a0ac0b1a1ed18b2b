(* Elements are native ints in [0, p).  p = 2^61 - 1 leaves two spare
   bits in OCaml's 63-bit int, so sums of two elements never overflow
   and [mul] can fold its partial products without leaving the int
   range: no operation allocates. *)
type t = int

let p = 0x1FFFFFFFFFFFFFFFL (* 2^61 - 1 *)
let pn = 0x1FFFFFFFFFFFFFFF
let zero = 0
let one = 1

(* Reduce x in [0, 2^62) into [0, p): since 2^61 ≡ 1 (mod p), fold the
   high bit down, then one conditional subtraction. *)
let reduce x =
  let x = (x land pn) + (x lsr 61) in
  if x >= pn then x - pn else x

(* Clear the sign bit, fold the top two bits down (2^61 ≡ 1) while
   still in int64, then finish in native ints: the folded value is
   below 2^61 + 4. *)
let of_int64 x =
  let x = Int64.logand x Int64.max_int in
  reduce
    (Int64.to_int
       (Int64.add (Int64.logand x p) (Int64.shift_right_logical x 61)))

let of_int x = of_int64 (Int64.of_int x)
let to_int64 x = Int64.of_int x

let add a b = reduce (a + b)
let sub a b = reduce (a + (pn - b))
let neg a = if a = 0 then 0 else pn - a

(* Split both operands at bit 31: a = ah·2^31 + al with ah < 2^30 and
   al < 2^31.  Then
     a·b = ah·bh·2^62 + (ah·bl + al·bh)·2^31 + al·bl
   with 2^62 ≡ 2, and the middle term m·2^31 split as
   (m lsr 30)·2^61 + (m land (2^30-1))·2^31 ≡ (m lsr 30) + ml·2^31.
   Every partial product and partial sum stays below 2^62. *)
let mul a b =
  let ah = a lsr 31 and al = a land 0x7FFFFFFF in
  let bh = b lsr 31 and bl = b land 0x7FFFFFFF in
  let m = (ah * bl) + (al * bh) in
  let lo = al * bl in
  let s = reduce ((2 * ah * bh) + ((m land 0x3FFFFFFF) lsl 31) + (m lsr 30)) in
  reduce (s + (lo land pn) + (lo lsr 61))

(* Square-and-multiply over the bits of [e], read as unsigned. *)
let pow base e =
  let acc = ref one and b = ref base and e = ref e in
  while not (Int64.equal !e 0L) do
    if Int64.equal (Int64.logand !e 1L) 1L then acc := mul !acc !b;
    b := mul !b !b;
    e := Int64.shift_right_logical !e 1
  done;
  !acc

let inv a =
  if a = 0 then raise Division_by_zero;
  pow a (Int64.sub p 2L)

let equal = Int.equal

let random rng =
  let rec go () =
    let v = Int64.logand (Sbft_sim.Rng.int64 rng) Int64.max_int in
    if v >= Int64.mul p 4L then go () else of_int64 v
  in
  go ()

let of_digest d =
  if String.length d < 8 then invalid_arg "Field.of_digest: digest too short";
  let x = of_int64 (String.get_int64_be d 0) in
  if x = 0 then one else x

let to_bytes x =
  let b = Bytes.create 8 in
  Bytes.set_int64_be b 0 (Int64.of_int x);
  Bytes.unsafe_to_string b

let of_bytes s = of_int64 (String.get_int64_be s 0)
