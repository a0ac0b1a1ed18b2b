module Writer = struct
  type t = Buffer.t

  let create ?(size = 64) () = Buffer.create size
  let u8 b v = Buffer.add_char b (Char.chr (v land 0xFF))

  let u32 b v =
    u8 b (v lsr 24);
    u8 b (v lsr 16);
    u8 b (v lsr 8);
    u8 b v

  let u64 b v =
    u32 b (v lsr 32);
    u32 b (v land 0xFFFFFFFF)

  let rec varint b v =
    if v < 0 then invalid_arg "Codec.varint: negative";
    if v < 0x80 then u8 b v
    else begin
      u8 b (0x80 lor (v land 0x7F));
      varint b (v lsr 7)
    end

  let str b s =
    varint b (String.length s);
    Buffer.add_string b s

  let raw b s = Buffer.add_string b s

  let list b f xs =
    varint b (List.length xs);
    List.iter f xs

  let contents = Buffer.contents
  let length = Buffer.length
  let blit w dst ~pos = Buffer.blit w 0 dst pos (Buffer.length w)
end

module Reader = struct
  type t = { data : string; mutable pos : int }

  exception Truncated

  let of_string data = { data; pos = 0 }

  let u8 r =
    if r.pos >= String.length r.data then raise Truncated;
    let v = Char.code r.data.[r.pos] in
    r.pos <- r.pos + 1;
    v

  let u32 r =
    let a = u8 r in
    let b = u8 r in
    let c = u8 r in
    let d = u8 r in
    (a lsl 24) lor (b lsl 16) lor (c lsl 8) lor d

  let u64 r =
    let hi = u32 r in
    let lo = u32 r in
    (hi lsl 32) lor lo

  (* [Writer.varint] emits at most 9 bytes (63 bits) and never a
     negative value; anything longer or negative is hostile input, and
     would otherwise reach [List.init]/[String.sub] as a negative count. *)
  let rec varint_from r shift acc =
    if shift > 56 then raise Truncated;
    let b = u8 r in
    let acc = acc lor ((b land 0x7F) lsl shift) in
    if b land 0x80 = 0 then if acc < 0 then raise Truncated else acc
    else varint_from r (shift + 7) acc

  (* Top-level recursion: no closure per call on the decode hot path. *)
  let varint r = varint_from r 0 0

  let check_len r n =
    if n < 0 || n > String.length r.data - r.pos then raise Truncated

  let raw r n =
    check_len r n;
    let s = String.sub r.data r.pos n in
    r.pos <- r.pos + n;
    s

  let str r =
    let n = varint r in
    raw r n

  let skip_str r =
    let n = varint r in
    check_len r n;
    r.pos <- r.pos + n

  let list r f =
    let n = varint r in
    List.init n (fun _ -> f r)

  let at_end r = r.pos = String.length r.data
end
