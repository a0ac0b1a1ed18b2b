(* Per-message prices: 10 Gbit/s NICs in bytes per ns (the expression's
   float rounding feeds every delivery time, so the golden outputs pin
   it as written), 80 bytes of TCP/IP + TLS framing per message, and the
   receiver and sender CPU time per message. *)
let bytes_per_ns = 10.0 *. 1e9 /. 8.0 /. 1e9
let per_msg_overhead_bytes = 80
let recv_overhead = Engine.us 30
let send_overhead = Engine.us 20

(* Link and NIC state is flat int-indexed arrays, not hashtables: the
   per-send path at n ≈ 200 does three lookups per message, and at
   ~100k+ sends per run the hashing and bucket chasing showed up in
   profiles.  The n×n matrices are row-major ([src * n + dst]) and tiny
   even at paper scale (201² bools + ints ≈ 360 KB). *)
type t = {
  topology : Topology.t;
  num_nodes : int;
  mutable drop_prob : float;
  mutable partition : int array option;
  down : bool array; (* down.(src * n + dst): directed link is cut *)
  extra : Engine.time array; (* extra.(src * n + dst): adversarial delay *)
  (* Gray failure: flapping links.  A directed link with a non-zero
     flap period passes traffic only during the first [flap_up] ns of
     each period (phase anchored at virtual time 0), so connectivity is
     a pure function of departure time — deterministic and replayable,
     unlike drop_prob which burns RNG draws. *)
  flap_period : Engine.time array; (* 0 = link does not flap *)
  flap_up : Engine.time array; (* up-window length within each period *)
  nic_free_at : Engine.time array; (* per-node sender-NIC FIFO horizon *)
  mutable messages_sent : int;
  mutable bytes_sent : int;
  mutable messages_dropped : int;
}

let create ~topology () =
  let n = Topology.num_nodes topology in
  {
    topology;
    num_nodes = n;
    drop_prob = 0.0;
    partition = None;
    down = Array.make (n * n) false;
    extra = Array.make (n * n) 0;
    flap_period = Array.make (n * n) 0;
    flap_up = Array.make (n * n) 0;
    nic_free_at = Array.make n 0;
    messages_sent = 0;
    bytes_sent = 0;
    messages_dropped = 0;
  }

let flapped_off t ~src ~dst ~at =
  let p = t.flap_period.((src * t.num_nodes) + dst) in
  p > 0 && at mod p >= t.flap_up.((src * t.num_nodes) + dst)

let blocked t ~src ~dst ~at =
  t.down.((src * t.num_nodes) + dst)
  || flapped_off t ~src ~dst ~at
  ||
  match t.partition with
  | None -> false
  | Some groups -> groups.(src) <> groups.(dst)

let send t eng ~src ~dst ~size ~at f =
  t.messages_sent <- t.messages_sent + 1;
  t.bytes_sent <- t.bytes_sent + size;
  let dropped =
    blocked t ~src ~dst ~at
    || (t.drop_prob > 0.0 && src <> dst && Rng.bool (Engine.rng eng) t.drop_prob)
  in
  if dropped then t.messages_dropped <- t.messages_dropped + 1
  else begin
    let wire_bytes = size + per_msg_overhead_bytes in
    let serialize = int_of_float (float_of_int wire_bytes /. bytes_per_ns) in
    (* Sender NIC is a FIFO: departures are serialized by bandwidth. *)
    let nic_free = t.nic_free_at.(src) in
    let start = if at > nic_free then at else nic_free in
    let departure = start + serialize in
    t.nic_free_at.(src) <- departure;
    let latency =
      if src = dst then Engine.us 5
      else Topology.sample_latency t.topology (Engine.rng eng) ~src ~dst
    in
    let extra = t.extra.((src * t.num_nodes) + dst) in
    let arrival = departure + latency + extra in
    Engine.dispatch eng ~dst ~at:arrival (fun c ->
        Engine.charge c recv_overhead;
        f c)
  end

let set_partition t ~groups = t.partition <- groups
let set_link t ~src ~dst ~up = t.down.((src * t.num_nodes) + dst) <- not up
let set_extra_delay t ~src ~dst d = t.extra.((src * t.num_nodes) + dst) <- d

let set_flap t ~src ~dst ~period ~up =
  let i = (src * t.num_nodes) + dst in
  if period <= 0 || up >= period then begin
    t.flap_period.(i) <- 0;
    t.flap_up.(i) <- 0
  end
  else begin
    t.flap_period.(i) <- period;
    t.flap_up.(i) <- max 0 up
  end

let clear_flap_node t ~node =
  for other = 0 to t.num_nodes - 1 do
    set_flap t ~src:node ~dst:other ~period:0 ~up:0;
    set_flap t ~src:other ~dst:node ~period:0 ~up:0
  done

let set_drop_prob t p = t.drop_prob <- p

let isolate_node t ~node =
  for other = 0 to t.num_nodes - 1 do
    if other <> node then begin
      set_link t ~src:node ~dst:other ~up:false;
      set_link t ~src:other ~dst:node ~up:false
    end
  done

let reconnect_node t ~node =
  for other = 0 to t.num_nodes - 1 do
    if other <> node then begin
      set_link t ~src:node ~dst:other ~up:true;
      set_link t ~src:other ~dst:node ~up:true
    end
  done

let messages_sent t = t.messages_sent
let bytes_sent t = t.bytes_sent
let messages_dropped t = t.messages_dropped

