(* The int64 GF(2^61 - 1) that lib/crypto/field.ml replaced with native
   ints: the oracle test_crypto checks the library against, operation by
   operation. *)

type t = int64

let p = 0x1FFFFFFFFFFFFFFFL (* 2^61 - 1 *)
let zero = 0L
let one = 1L

(* Reduce x in [0, 2^63) into [0, p): since 2^61 ≡ 1 (mod p), fold the
   high bits down, then one conditional subtraction. *)
let reduce x =
  let x = Int64.add (Int64.logand x p) (Int64.shift_right_logical x 61) in
  if x >= p then Int64.sub x p else x

let of_int64 x =
  let x = Int64.logand x Int64.max_int (* clear sign bit *) in
  reduce (reduce x)

let of_int x = of_int64 (Int64.of_int x)
let to_int64 x = x

let add a b = reduce (Int64.add a b)
let sub a b = reduce (Int64.add a (Int64.sub p b))
let neg a = if a = 0L then 0L else Int64.sub p a

(* Schoolbook 64x64 -> 128-bit multiply split at 32 bits, with all the
   partial products folded modulo 2^61 - 1.  Each intermediate stays
   below 2^62, so signed Int64 arithmetic never overflows except for the
   aL*bL product, which wraps exactly like unsigned multiplication and is
   split with logical shifts. *)
let mul a b =
  let alo = Int64.logand a 0xFFFFFFFFL and ahi = Int64.shift_right_logical a 32 in
  let blo = Int64.logand b 0xFFFFFFFFL and bhi = Int64.shift_right_logical b 32 in
  (* ahi*bhi * 2^64 ≡ ahi*bhi * 8 : ahi,bhi < 2^29 so the product < 2^61. *)
  let hi = reduce (Int64.mul (Int64.mul ahi bhi) 8L) in
  (* mid = (ahi*blo + alo*bhi) * 2^32, split as mh*2^61 + ml. *)
  let m = Int64.add (Int64.mul ahi blo) (Int64.mul alo bhi) in
  let mh = Int64.shift_right_logical m 29 in
  let ml = Int64.shift_left (Int64.logand m 0x1FFFFFFFL) 32 in
  let mid = reduce (Int64.add (reduce mh) ml) in
  (* lo = alo*blo as a full unsigned 64-bit value. *)
  let lo = Int64.mul alo blo in
  let lo_hi = Int64.shift_right_logical lo 61 in
  let lo_lo = Int64.logand lo p in
  let low = reduce (Int64.add lo_hi lo_lo) in
  add (add hi mid) low

let rec pow base e =
  if e = 0L then one
  else begin
    let half = pow base (Int64.shift_right_logical e 1) in
    let sq = mul half half in
    if Int64.logand e 1L = 1L then mul sq base else sq
  end

let inv a =
  if a = 0L then raise Division_by_zero;
  pow a (Int64.sub p 2L)

let equal = Int64.equal

let random rng =
  let rec go () =
    let v = Int64.logand (Sbft_sim.Rng.int64 rng) Int64.max_int in
    if v >= Int64.mul p 4L then go () else reduce (reduce v)
  in
  go ()

let of_digest d =
  if String.length d < 8 then invalid_arg "Field.of_digest: digest too short";
  let v = ref 0L in
  for i = 0 to 7 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Char.code d.[i]))
  done;
  let x = of_int64 !v in
  if x = 0L then one else x

let to_bytes x =
  let b = Bytes.create 8 in
  for i = 0 to 7 do
    Bytes.set b i
      (Char.chr
         (Int64.to_int (Int64.logand (Int64.shift_right_logical x (8 * (7 - i))) 0xFFL)))
  done;
  Bytes.unsafe_to_string b

let of_bytes s =
  let v = ref 0L in
  for i = 0 to 7 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Char.code s.[i]))
  done;
  of_int64 !v

let pp fmt x = Format.fprintf fmt "%Ld" x
