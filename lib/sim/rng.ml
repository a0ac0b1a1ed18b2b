(* SplitMix64 (Steele, Lea, Flood 2014): a tiny, fast, splittable PRNG
   with excellent statistical quality for simulation purposes.

   One latency draw per simulated message makes this a hot path, so no
   draw allocates beyond its result.  The 64-bit state lives in an
   8-byte [Bytes.t], which [Bytes.get_int64_ne]/[set_int64_ne] read and
   write unboxed; a [mutable int64] field would box each new state.  A
   call that returns an [int64] or a [float] boxes it too, so [int64]
   and [float] are inlined, and [gaussian] and [exponential] draw their
   uniforms inside their own body. *)

type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 s;
  t

let create seed = of_state (mix (Int64.add seed golden_gamma))

let[@inline] int64 t =
  let s = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 s;
  mix s

let split t = of_state (int64 t)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Keep 62 bits so the conversion to OCaml's 63-bit int stays
     non-negative; modulo bias is negligible for bounds far below 2^62. *)
  let v = Int64.to_int (Int64.shift_right_logical (int64 t) 2) in
  v mod bound

(* 53 high bits -> [0, 1) *)
let[@inline] float t =
  Int64.to_float (Int64.shift_right_logical (int64 t) 11) *. (1.0 /. 9007199254740992.0)

let bool t p = float t < p

let gaussian t =
  let u1 = ref (float t) in
  while !u1 <= 0.0 do
    u1 := float t
  done;
  let u2 = float t in
  sqrt (-2.0 *. log !u1) *. cos (2.0 *. Float.pi *. u2)

let exponential t ~mean =
  let u = ref (float t) in
  while !u <= 0.0 do
    u := float t
  done;
  -.mean *. log !u

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let pick t a =
  if Array.length a = 0 then invalid_arg "Rng.pick: empty array";
  a.(int t (Array.length a))
