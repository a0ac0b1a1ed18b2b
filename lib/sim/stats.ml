module Latency = struct
  type t = { mutable samples : int array; mutable len : int; mutable sorted : bool }

  let create () = { samples = [||]; len = 0; sorted = false }

  let add t x =
    let cap = Array.length t.samples in
    if t.len = cap then begin
      let ncap = if cap = 0 then 256 else cap * 2 in
      let ns = Array.make ncap 0 in
      Array.blit t.samples 0 ns 0 t.len;
      t.samples <- ns
    end;
    t.samples.(t.len) <- x;
    t.len <- t.len + 1;
    t.sorted <- false

  let ensure_sorted t =
    if not t.sorted then begin
      let live = Array.sub t.samples 0 t.len in
      Array.sort compare live;
      Array.blit live 0 t.samples 0 t.len;
      t.sorted <- true
    end

  let mean_ms t =
    if t.len = 0 then nan
    else begin
      let sum = ref 0.0 in
      for i = 0 to t.len - 1 do
        sum := !sum +. float_of_int t.samples.(i)
      done;
      !sum /. float_of_int t.len /. 1e6
    end

  let percentile_ms t p =
    if t.len = 0 then nan
    else begin
      ensure_sorted t;
      let idx = int_of_float (p *. float_of_int (t.len - 1)) in
      let idx = if idx < 0 then 0 else if idx >= t.len then t.len - 1 else idx in
      float_of_int t.samples.(idx) /. 1e6
    end

  let median_ms t = percentile_ms t 0.5

end

module Throughput = struct
  type t = {
    mutable times : int array;
    mutable counts : int array;
    mutable len : int;
    mutable total : int;
  }

  let create () = { times = [||]; counts = [||]; len = 0; total = 0 }

  let add t ~at k =
    let cap = Array.length t.times in
    if t.len = cap then begin
      let ncap = if cap = 0 then 256 else cap * 2 in
      let nt = Array.make ncap 0 and nc = Array.make ncap 0 in
      Array.blit t.times 0 nt 0 t.len;
      Array.blit t.counts 0 nc 0 t.len;
      t.times <- nt;
      t.counts <- nc
    end;
    t.times.(t.len) <- at;
    t.counts.(t.len) <- k;
    t.len <- t.len + 1;
    t.total <- t.total + k

  let total t = t.total

  (* Samples arrive in virtual-time order, so the last one recorded is
     the latest. *)
  let last_at t = if t.len = 0 then None else Some t.times.(t.len - 1)

  let rate t ~from_ ~until =
    if until <= from_ then nan
    else begin
      let ops = ref 0 in
      for i = 0 to t.len - 1 do
        if t.times.(i) >= from_ && t.times.(i) < until then ops := !ops + t.counts.(i)
      done;
      float_of_int !ops /. Engine.to_sec (until - from_)
    end
end
