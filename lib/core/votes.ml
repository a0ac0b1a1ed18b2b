type t = {
  mutable seen : Bytes.t; (* seen.[id] <> '\000' iff id is in the set *)
  mutable count : int;
}

let create () = { seen = Bytes.empty; count = 0 }

let mem t id = id >= 0 && id < Bytes.length t.seen && Bytes.get t.seen id <> '\000'

let add t id =
  if id >= Bytes.length t.seen then begin
    let len = max (id + 1) (max 8 (2 * Bytes.length t.seen)) in
    let b = Bytes.make len '\000' in
    Bytes.blit t.seen 0 b 0 (Bytes.length t.seen);
    t.seen <- b
  end;
  if Bytes.get t.seen id = '\000' then begin
    Bytes.set t.seen id '\001';
    t.count <- t.count + 1
  end

let count t = t.count

let reset t =
  Bytes.fill t.seen 0 (Bytes.length t.seen) '\000';
  t.count <- 0
