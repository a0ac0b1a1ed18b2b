(* The OCaml SHA-256 compression that lib/crypto/sha256_stubs.c replaced:
   the oracle test_crypto checks the library against.  All 32-bit words
   are kept in the low 32 bits of an OCaml int, masked after every
   arithmetic step. *)

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

let compress h w block off =
  for i = 0 to 15 do
    let j = off + (4 * i) in
    w.(i) <-
      (Char.code (Bytes.get block j) lsl 24)
      lor (Char.code (Bytes.get block (j + 1)) lsl 16)
      lor (Char.code (Bytes.get block (j + 2)) lsl 8)
      lor Char.code (Bytes.get block (j + 3))
  done;
  for i = 16 to 63 do
    let x15 = w.(i - 15) in
    let s0 =
      (((x15 lsr 7) lor (x15 lsl 25)) lxor ((x15 lsr 18) lor (x15 lsl 14))
       lxor (x15 lsr 3))
      land mask
    in
    let x2 = w.(i - 2) in
    let s1 =
      (((x2 lsr 17) lor (x2 lsl 15)) lxor ((x2 lsr 19) lor (x2 lsl 13))
       lxor (x2 lsr 10))
      land mask
    in
    w.(i) <- (w.(i - 16) + s0 + w.(i - 7) + s1) land mask
  done;
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
    let temp1 = !hh + s1 + ch + k.(i) + w.(i) in
    let av = !a in
    let s0 =
      (((av lsr 2) lor (av lsl 30)) lxor ((av lsr 13) lor (av lsl 19))
       lxor ((av lsr 22) lor (av lsl 10)))
      land mask
    in
    let maj = (av land !b) lxor (av land !c) lxor (!b land !c) in
    hh := !g;
    g := !f;
    f := ev;
    e := (!d + temp1) land mask;
    d := !c;
    c := !b;
    b := av;
    a := (temp1 + s0 + maj) land mask
  done;
  List.iteri
    (fun i v -> h.(i) <- (h.(i) + v) land mask)
    [ !a; !b; !c; !d; !e; !f; !g; !hh ]

(* One-shot digest: pad the whole message (0x80, zeros, the 64-bit
   big-endian bit length) and compress it block by block. *)
let digest msg =
  let len = String.length msg in
  let padded = ((len + 8) / 64 + 1) * 64 in
  let block = Bytes.make padded '\x00' in
  Bytes.blit_string msg 0 block 0 len;
  Bytes.set block len '\x80';
  Bytes.set_int64_be block (padded - 8) (Int64.of_int (len * 8));
  let h =
    [|
      0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f; 0x9b05688c;
      0x1f83d9ab; 0x5be0cd19;
    |]
  in
  let w = Array.make 64 0 in
  for b = 0 to (padded / 64) - 1 do
    compress h w block (64 * b)
  done;
  let out = Bytes.create 32 in
  Array.iteri (fun i v -> Bytes.set_int32_be out (4 * i) (Int32.of_int v)) h;
  Bytes.to_string out
