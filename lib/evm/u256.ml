(* Four little-endian int64 limbs; w0 is least significant.  Int64
   addition/multiplication wrap exactly like unsigned arithmetic, so only
   comparisons need the [unsigned_compare] variants. *)

type t = { w0 : int64; w1 : int64; w2 : int64; w3 : int64 }

let zero = { w0 = 0L; w1 = 0L; w2 = 0L; w3 = 0L }
let one = { w0 = 1L; w1 = 0L; w2 = 0L; w3 = 0L }
let max_value = { w0 = -1L; w1 = -1L; w2 = -1L; w3 = -1L }

let limb t i =
  match i with 0 -> t.w0 | 1 -> t.w1 | 2 -> t.w2 | _ -> t.w3

let make l =
  { w0 = l.(0); w1 = l.(1); w2 = l.(2); w3 = l.(3) }

let of_int x =
  if x < 0 then invalid_arg "U256.of_int: negative";
  { zero with w0 = Int64.of_int x }

let to_int_opt t =
  if t.w1 = 0L && t.w2 = 0L && t.w3 = 0L && Int64.unsigned_compare t.w0 (Int64.of_int max_int) <= 0
  then Some (Int64.to_int t.w0)
  else None

let to_int_clamped t = match to_int_opt t with Some v -> v | None -> max_int

let equal a b = a.w0 = b.w0 && a.w1 = b.w1 && a.w2 = b.w2 && a.w3 = b.w3
let is_zero t = equal t zero

let compare a b =
  let c3 = Int64.unsigned_compare a.w3 b.w3 in
  if c3 <> 0 then c3
  else begin
    let c2 = Int64.unsigned_compare a.w2 b.w2 in
    if c2 <> 0 then c2
    else begin
      let c1 = Int64.unsigned_compare a.w1 b.w1 in
      if c1 <> 0 then c1 else Int64.unsigned_compare a.w0 b.w0
    end
  end

let lt a b = compare a b < 0
let gt a b = compare a b > 0
let is_negative t = Int64.compare t.w3 0L < 0

(* -------------------- add / sub -------------------- *)

let add_limb a b carry =
  (* carry is 0L or 1L *)
  let s = Int64.add a b in
  let c1 = if Int64.unsigned_compare s a < 0 then 1L else 0L in
  let s' = Int64.add s carry in
  let c2 = if carry = 1L && s' = 0L then 1L else 0L in
  (s', Int64.logor c1 c2)

let add a b =
  let w0, c0 = add_limb a.w0 b.w0 0L in
  let w1, c1 = add_limb a.w1 b.w1 c0 in
  let w2, c2 = add_limb a.w2 b.w2 c1 in
  let w3, _ = add_limb a.w3 b.w3 c2 in
  { w0; w1; w2; w3 }

let lognot t =
  { w0 = Int64.lognot t.w0; w1 = Int64.lognot t.w1; w2 = Int64.lognot t.w2;
    w3 = Int64.lognot t.w3 }

let neg t = add (lognot t) one
let sub a b = add a (neg b)

(* -------------------- bitwise -------------------- *)

let logand a b =
  { w0 = Int64.logand a.w0 b.w0; w1 = Int64.logand a.w1 b.w1;
    w2 = Int64.logand a.w2 b.w2; w3 = Int64.logand a.w3 b.w3 }

let logor a b =
  { w0 = Int64.logor a.w0 b.w0; w1 = Int64.logor a.w1 b.w1;
    w2 = Int64.logor a.w2 b.w2; w3 = Int64.logor a.w3 b.w3 }

let logxor a b =
  { w0 = Int64.logxor a.w0 b.w0; w1 = Int64.logxor a.w1 b.w1;
    w2 = Int64.logxor a.w2 b.w2; w3 = Int64.logxor a.w3 b.w3 }

let shift_left t n =
  if n <= 0 then (if n = 0 then t else invalid_arg "shift_left")
  else if n >= 256 then zero
  else begin
    let limbs = n / 64 and bits = n mod 64 in
    let get i =
      let j = i - limbs in
      if j < 0 then 0L
      else if bits = 0 then limb t j
      else begin
        let lo = if j - 1 >= 0 then Int64.shift_right_logical (limb t (j - 1)) (64 - bits) else 0L in
        Int64.logor (Int64.shift_left (limb t j) bits) lo
      end
    in
    make [| get 0; get 1; get 2; get 3 |]
  end

let shift_right t n =
  if n <= 0 then (if n = 0 then t else invalid_arg "shift_right")
  else if n >= 256 then zero
  else begin
    let limbs = n / 64 and bits = n mod 64 in
    let get i =
      let j = i + limbs in
      if j > 3 then 0L
      else if bits = 0 then limb t j
      else begin
        let hi = if j + 1 <= 3 then Int64.shift_left (limb t (j + 1)) (64 - bits) else 0L in
        Int64.logor (Int64.shift_right_logical (limb t j) bits) hi
      end
    in
    make [| get 0; get 1; get 2; get 3 |]
  end

let shift_right_arith t n =
  if n = 0 then t
  else begin
    let negative = is_negative t in
    if n >= 256 then if negative then max_value else zero
    else begin
      let logical = shift_right t n in
      if not negative then logical
      else (* fill the vacated top n bits with ones *)
        logor logical (shift_left max_value (256 - n))
    end
  end

(* -------------------- bytes / hex -------------------- *)

let of_bytes_be s =
  let len = String.length s in
  if len > 32 then invalid_arg "U256.of_bytes_be: longer than 32 bytes";
  let limbs = Array.make 4 0L in
  for i = 0 to len - 1 do
    (* byte i (big-endian) corresponds to bit offset 8*(len-1-i) *)
    let bit_off = 8 * (len - 1 - i) in
    let l = bit_off / 64 and sh = bit_off mod 64 in
    limbs.(l) <-
      Int64.logor limbs.(l) (Int64.shift_left (Int64.of_int (Char.code s.[i])) sh)
  done;
  make limbs

let to_bytes_be t =
  let b = Bytes.create 32 in
  for i = 0 to 31 do
    let bit_off = 8 * (31 - i) in
    let l = bit_off / 64 and sh = bit_off mod 64 in
    let v = Int64.to_int (Int64.logand (Int64.shift_right_logical (limb t l) sh) 0xFFL) in
    Bytes.set b i (Char.chr v)
  done;
  Bytes.unsafe_to_string b

let of_hex s =
  let s = if String.length s >= 2 && String.sub s 0 2 = "0x" then String.sub s 2 (String.length s - 2) else s in
  let s = if String.length s mod 2 = 1 then "0" ^ s else s in
  let n = String.length s / 2 in
  if n > 32 then invalid_arg "U256.of_hex: too long";
  let b = Bytes.create n in
  for i = 0 to n - 1 do
    Bytes.set b i (Char.chr (int_of_string ("0x" ^ String.sub s (2 * i) 2)))
  done;
  of_bytes_be (Bytes.unsafe_to_string b)

let to_hex t =
  if is_zero t then "0x0"
  else begin
    let raw = to_bytes_be t in
    let buf = Buffer.create 66 in
    Buffer.add_string buf "0x";
    let started = ref false in
    String.iter
      (fun c ->
        if !started then Buffer.add_string buf (Printf.sprintf "%02x" (Char.code c))
        else if Char.code c <> 0 then begin
          started := true;
          Buffer.add_string buf (Printf.sprintf "%x" (Char.code c))
        end)
      raw;
    Buffer.contents buf
  end

let byte i t =
  if i >= 32 || i < 0 then zero
  else of_int (Char.code (to_bytes_be t).[i])

let sign_extend b t =
  if b >= 31 || b < 0 then t
  else begin
    let sign_bit_pos = (8 * (b + 1)) - 1 in
    let bit_set =
      let l = sign_bit_pos / 64 and sh = sign_bit_pos mod 64 in
      Int64.logand (Int64.shift_right_logical (limb t l) sh) 1L = 1L
    in
    let mask = shift_left max_value (8 * (b + 1)) in
    if bit_set then logor t mask else logand t (lognot mask)
  end

(* -------------------- mul -------------------- *)

(* 16-bit digit decomposition: sixteen digits, least significant first.
   Products of 16-bit digits plus accumulators fit comfortably in
   OCaml's 63-bit ints (a 32-bit digit scheme would overflow them). *)
let to_digits t =
  let d = Array.make 16 0 in
  for i = 0 to 3 do
    let l = limb t i in
    for j = 0 to 3 do
      d.((4 * i) + j) <-
        Int64.to_int (Int64.logand (Int64.shift_right_logical l (16 * j)) 0xFFFFL)
    done
  done;
  d

let of_digits d =
  let l i =
    let v = ref 0L in
    for j = 3 downto 0 do
      v := Int64.logor (Int64.shift_left !v 16) (Int64.of_int (d.((4 * i) + j) land 0xFFFF))
    done;
    !v
  in
  make [| l 0; l 1; l 2; l 3 |]

let mul a b =
  let da = to_digits a and db = to_digits b in
  let out = Array.make 16 0 in
  for i = 0 to 15 do
    let carry = ref 0 in
    for j = 0 to 15 - i do
      let k = i + j in
      let v = out.(k) + (da.(i) * db.(j)) + !carry in
      out.(k) <- v land 0xFFFF;
      carry := v lsr 16
    done
  done;
  of_digits out

(* -------------------- div / rem -------------------- *)

let bits t =
  let rec limb_bits i =
    if i < 0 then 0
    else begin
      let l = limb t i in
      if l = 0L then limb_bits (i - 1)
      else begin
        let rec high b = if Int64.shift_right_logical l b <> 0L then b + 1 else high (b - 1) in
        (64 * i) + high 63
      end
    end
  in
  limb_bits 3

let bit_at t i =
  let l = i / 64 and sh = i mod 64 in
  Int64.logand (Int64.shift_right_logical (limb t l) sh) 1L = 1L

let divrem a b =
  if is_zero b then (zero, zero) (* EVM: x / 0 = 0, x mod 0 = 0 *)
  else if compare a b < 0 then (zero, a)
  else begin
    (* Restoring long division over the significant bits of [a].  The
       invariant [r < b] bounds the shifted value below [2b]; when the
       shift overflows 256 bits (possible only if [b > 2^255]) the true
       value certainly exceeds [b], and the wrapping subtraction still
       yields the correct in-range remainder. *)
    let q = ref zero and r = ref zero in
    for i = bits a - 1 downto 0 do
      let overflow = bit_at !r 255 in
      r := shift_left !r 1;
      if bit_at a i then r := logor !r one;
      if overflow || compare !r b >= 0 then begin
        r := sub !r b;
        q := logor !q (shift_left one i)
      end
    done;
    (!q, !r)
  end

let div a b = fst (divrem a b)
let rem a b = snd (divrem a b)

(* Signed division/modulo (two's complement), EVM semantics: the result
   of SDIV truncates toward zero; SMOD takes the dividend's sign. *)
let sdiv a b =
  if is_zero b then zero
  else begin
    let abs x = if is_negative x then neg x else x in
    let q = div (abs a) (abs b) in
    if is_negative a <> is_negative b then neg q else q
  end

let srem a b =
  if is_zero b then zero
  else begin
    let abs x = if is_negative x then neg x else x in
    let r = rem (abs a) (abs b) in
    if is_negative a then neg r else r
  end

let slt a b =
  match (is_negative a, is_negative b) with
  | true, false -> true
  | false, true -> false
  | _ -> lt a b

let sgt a b = slt b a

(* -------------------- modular / exp -------------------- *)

(* ADDMOD and MULMOD are defined over arbitrary precision before the
   final reduction.  For ADDMOD track the single carry bit explicitly;
   for MULMOD use 512-bit digit arithmetic. *)
let addmod a b m =
  if is_zero m then zero
  else begin
    (* With x, y < m the true sum is < 2m; a wrapped result certainly
       exceeds m and the wrapping subtraction is still correct. *)
    let addmod_small x y =
      let s = add x y in
      if compare s x < 0 then sub s m else rem s m
    in
    addmod_small (rem a m) (rem b m)
  end

let mulmod a b m =
  if is_zero m then zero
  else begin
    (* Full 512-bit product in 16-bit digits, then long division by m
       bit-by-bit over 512 bits, tracking only the remainder. *)
    let da = to_digits a and db = to_digits b in
    let prod = Array.make 33 0 in
    for i = 0 to 15 do
      let carry = ref 0 in
      for j = 0 to 15 do
        let k = i + j in
        let v = prod.(k) + (da.(i) * db.(j)) + !carry in
        prod.(k) <- v land 0xFFFF;
        carry := v lsr 16
      done;
      prod.(i + 16) <- prod.(i + 16) + !carry
    done;
    let r = ref zero in
    for bit = 511 downto 0 do
      let overflow = bit_at !r 255 in
      r := shift_left !r 1;
      let digit = bit / 16 and sh = bit mod 16 in
      if (prod.(digit) lsr sh) land 1 = 1 then r := logor !r one;
      (* r < m before the shift, so the shifted value is < 2m; if the
         shift wrapped past 2^256 the wrapping subtraction still lands
         in range. *)
      if overflow || compare !r m >= 0 then r := sub !r m
    done;
    !r
  end

let exp base e =
  let result = ref one and b = ref base in
  for i = 0 to 255 do
    if bit_at e i then result := mul !result !b;
    b := mul !b !b
  done;
  !result
