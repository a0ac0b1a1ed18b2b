(* SHA-256 over native ints: all 32-bit words are kept in the low 32 bits
   of an OCaml int (63-bit), masked after every arithmetic step.

   This is the simulator's main host-side hash at paper scale: request
   digests, block digests, key hashes on every Merkle-map Put, and the
   per-block Merkle-map root, which hashes each node the block touched
   once when the root is first asked for.  So the compression loop is
   written for ocamlopt: rotations are inlined by hand, array and byte
   accesses are unsafe (indices are statically in range), and [digest] /
   [digest_list] reuse one scratch context instead of allocating the
   schedule and buffer per call (the simulator is single-domain and the
   functions never re-enter). *)

let mask = 0xFFFFFFFF

let k =
  [|
    0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1;
    0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3;
    0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786;
    0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
    0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
    0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13;
    0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
    0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
    0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a;
    0x5b9cca4f; 0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
    0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2;
  |]

type ctx = {
  h : int array; (* 8 state words *)
  buf : Bytes.t; (* 64-byte block buffer *)
  mutable buf_len : int;
  mutable total : int; (* total bytes fed *)
  w : int array; (* message schedule scratch *)
}

let iv =
  [|
    0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f; 0x9b05688c;
    0x1f83d9ab; 0x5be0cd19;
  |]

let init () =
  {
    h = Array.copy iv;
    buf = Bytes.create 64;
    buf_len = 0;
    total = 0;
    w = Array.make 64 0;
  }

let compress ctx block off =
  let w = ctx.w in
  for i = 0 to 15 do
    let j = off + (4 * i) in
    Array.unsafe_set w i
      ((Char.code (Bytes.unsafe_get block j) lsl 24)
      lor (Char.code (Bytes.unsafe_get block (j + 1)) lsl 16)
      lor (Char.code (Bytes.unsafe_get block (j + 2)) lsl 8)
      lor Char.code (Bytes.unsafe_get block (j + 3)))
  done;
  for i = 16 to 63 do
    let x15 = Array.unsafe_get w (i - 15) in
    let s0 =
      (((x15 lsr 7) lor (x15 lsl 25)) lxor ((x15 lsr 18) lor (x15 lsl 14))
       lxor (x15 lsr 3))
      land mask
    in
    let x2 = Array.unsafe_get w (i - 2) in
    let s1 =
      (((x2 lsr 17) lor (x2 lsl 15)) lxor ((x2 lsr 19) lor (x2 lsl 13))
       lxor (x2 lsr 10))
      land mask
    in
    Array.unsafe_set w i
      ((Array.unsafe_get w (i - 16) + s0 + Array.unsafe_get w (i - 7) + s1)
      land mask)
  done;
  let h = ctx.h in
  let a = ref h.(0) and b = ref h.(1) and c = ref h.(2) and d = ref h.(3) in
  let e = ref h.(4) and f = ref h.(5) and g = ref h.(6) and hh = ref h.(7) in
  for i = 0 to 63 do
    let ev = !e in
    let s1 =
      (((ev lsr 6) lor (ev lsl 26)) lxor ((ev lsr 11) lor (ev lsl 21))
       lxor ((ev lsr 25) lor (ev lsl 7)))
      land mask
    in
    let ch = (ev land !f) lxor (lnot ev land !g) in
    (* Unmasked: below 5 * 2^32, so [e] and [a] take one mask each. *)
    let temp1 = !hh + s1 + ch + Array.unsafe_get k i + Array.unsafe_get w i in
    let av = !a in
    let s0 =
      (((av lsr 2) lor (av lsl 30)) lxor ((av lsr 13) lor (av lsl 19))
       lxor ((av lsr 22) lor (av lsl 10)))
      land mask
    in
    let maj = (av land !b) lxor (av land !c) lxor (!b land !c) in
    let temp2 = s0 + maj in
    hh := !g;
    g := !f;
    f := ev;
    e := (!d + temp1) land mask;
    d := !c;
    c := !b;
    b := av;
    a := (temp1 + temp2) land mask
  done;
  h.(0) <- (h.(0) + !a) land mask;
  h.(1) <- (h.(1) + !b) land mask;
  h.(2) <- (h.(2) + !c) land mask;
  h.(3) <- (h.(3) + !d) land mask;
  h.(4) <- (h.(4) + !e) land mask;
  h.(5) <- (h.(5) + !f) land mask;
  h.(6) <- (h.(6) + !g) land mask;
  h.(7) <- (h.(7) + !hh) land mask

let feed_bytes ctx data ~off ~len =
  ctx.total <- ctx.total + len;
  let pos = ref off and remaining = ref len in
  (* Fill a partial buffer first. *)
  if ctx.buf_len > 0 then begin
    let take = min !remaining (64 - ctx.buf_len) in
    Bytes.blit data !pos ctx.buf ctx.buf_len take;
    ctx.buf_len <- ctx.buf_len + take;
    pos := !pos + take;
    remaining := !remaining - take;
    if ctx.buf_len = 64 then begin
      compress ctx ctx.buf 0;
      ctx.buf_len <- 0
    end
  end;
  while !remaining >= 64 do
    compress ctx data !pos;
    pos := !pos + 64;
    remaining := !remaining - 64
  done;
  if !remaining > 0 then begin
    Bytes.blit data !pos ctx.buf 0 !remaining;
    ctx.buf_len <- !remaining
  end

let feed ctx s = feed_bytes ctx (Bytes.unsafe_of_string s) ~off:0 ~len:(String.length s)

let finalize ctx =
  let bit_len = ctx.total * 8 in
  (* Padding in place: 0x80, zeros to fill the block (spilling into a
     second block when fewer than 8 trailing bytes remain for the
     length), then the 8-byte big-endian bit length.  buf_len < 64
     always holds here, so the buffer never overflows. *)
  let buf = ctx.buf in
  Bytes.set buf ctx.buf_len '\x80';
  ctx.buf_len <- ctx.buf_len + 1;
  if ctx.buf_len > 56 then begin
    Bytes.fill buf ctx.buf_len (64 - ctx.buf_len) '\x00';
    compress ctx buf 0;
    ctx.buf_len <- 0
  end;
  Bytes.fill buf ctx.buf_len (56 - ctx.buf_len) '\x00';
  for i = 0 to 7 do
    Bytes.set buf (56 + i) (Char.chr ((bit_len lsr (8 * (7 - i))) land 0xFF))
  done;
  compress ctx buf 0;
  ctx.buf_len <- 0;
  let out = Bytes.create 32 in
  for i = 0 to 7 do
    let v = ctx.h.(i) in
    Bytes.set out (4 * i) (Char.chr ((v lsr 24) land 0xFF));
    Bytes.set out ((4 * i) + 1) (Char.chr ((v lsr 16) land 0xFF));
    Bytes.set out ((4 * i) + 2) (Char.chr ((v lsr 8) land 0xFF));
    Bytes.set out ((4 * i) + 3) (Char.chr (v land 0xFF))
  done;
  Bytes.unsafe_to_string out

(* One-shot digests run on a reused scratch context, trading the
   per-call schedule/buffer allocation for a cheap reset. *)
let scratch = init ()

let reset ctx =
  Array.blit iv 0 ctx.h 0 8;
  ctx.buf_len <- 0;
  ctx.total <- 0

let digest msg =
  reset scratch;
  feed scratch msg;
  finalize scratch

let digest_list chunks =
  reset scratch;
  List.iter (feed scratch) chunks;
  finalize scratch

let hex s =
  let b = Buffer.create (2 * String.length s) in
  String.iter (fun c -> Buffer.add_string b (Printf.sprintf "%02x" (Char.code c))) s;
  Buffer.contents b
