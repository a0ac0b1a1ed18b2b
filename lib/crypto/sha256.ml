(* SHA-256 (FIPS 180-4).  The 32-bit state words are kept in the low 32
   bits of OCaml ints.

   This is the simulator's main host-side hash at paper scale: request
   digests, block digests, key hashes on every Merkle-map Put, and the
   per-block Merkle-map root, which hashes each node the block touched
   once when the root is first asked for.  So the compression function
   is a C stub (sha256_stubs.c) that updates [h] in place without
   allocating: the x86 SHA extensions where CPUID reports them, a
   portable loop everywhere else.  Padding and buffering stay here.  [digest] /
   [digest_list] reuse one scratch context instead of allocating a
   buffer per call (the simulator is single-domain and the functions
   never re-enter). *)

type ctx = {
  h : int array; (* 8 state words *)
  buf : Bytes.t; (* 64-byte block buffer *)
  mutable buf_len : int;
  mutable total : int; (* total bytes fed *)
}

let iv =
  [|
    0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f; 0x9b05688c;
    0x1f83d9ab; 0x5be0cd19;
  |]

let init () = { h = Array.copy iv; buf = Bytes.create 64; buf_len = 0; total = 0 }

(* [compress h block off] compresses the 64 bytes of [block] at [off]
   into the state [h]; every caller keeps [off + 64] within [block]. *)
external compress : int array -> Bytes.t -> int -> unit = "sbft_sha256_compress"
[@@noalloc]

(* The portable loop alone, whatever the CPU; only the tests call it. *)
external compress_portable : int array -> Bytes.t -> int -> unit
  = "sbft_sha256_compress_portable"
[@@noalloc]

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
      compress ctx.h ctx.buf 0;
      ctx.buf_len <- 0
    end
  end;
  while !remaining >= 64 do
    compress ctx.h data !pos;
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
    compress ctx.h buf 0;
    ctx.buf_len <- 0
  end;
  Bytes.fill buf ctx.buf_len (56 - ctx.buf_len) '\x00';
  Bytes.set_int64_be buf 56 (Int64.of_int bit_len);
  compress ctx.h buf 0;
  ctx.buf_len <- 0;
  let out = Bytes.create 32 in
  for i = 0 to 7 do
    Bytes.set_int32_be out (4 * i) (Int32.of_int ctx.h.(i))
  done;
  Bytes.unsafe_to_string out

(* One-shot digests run on a reused scratch context, trading the
   per-call buffer allocation for a cheap reset. *)
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
