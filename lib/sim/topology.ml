type t = {
  region_of : int array;
  one_way_ns : int array array;
  num_regions : int;
  jitter : float;
}

let make ~region_of ~one_way_ms ~jitter =
  let num_regions = Array.length one_way_ms in
  let one_way_ns =
    Array.map (Array.map (fun ms -> Engine.ms_f ms)) one_way_ms
  in
  { region_of; one_way_ns; num_regions; jitter }

(* One-way latency between two points on the globe: great-circle distance
   at ~200,000 km/s in fibre, times a 1.4 routing inflation factor, plus a
   fixed 1.5 ms of access/queueing overhead.  This reproduces familiar
   real-world numbers (us-east <-> eu-west ~ 40 ms one-way, us <->
   ap-southeast ~ 100+ ms). *)
let great_circle_ms (lat1, lon1) (lat2, lon2) =
  let rad d = d *. Float.pi /. 180.0 in
  let phi1 = rad lat1 and phi2 = rad lat2 in
  let dphi = rad (lat2 -. lat1) and dlambda = rad (lon2 -. lon1) in
  let a =
    (sin (dphi /. 2.0) ** 2.0)
    +. (cos phi1 *. cos phi2 *. (sin (dlambda /. 2.0) ** 2.0))
  in
  let km = 6371.0 *. 2.0 *. atan2 (sqrt a) (sqrt (1.0 -. a)) in
  (km *. 1.4 /. 200_000.0 *. 1000.0) +. 1.5

let matrix_of_coords coords ~same_region_ms =
  let n = Array.length coords in
  Array.init n (fun i ->
      Array.init n (fun j ->
          if i = j then same_region_ms else great_circle_ms coords.(i) coords.(j)))

let round_robin_regions ~num_nodes ~num_regions =
  Array.init num_nodes (fun i -> i mod num_regions)

let lan ~num_nodes =
  make
    ~region_of:(Array.make num_nodes 0)
    ~one_way_ms:[| [| 0.15 |] |]
    ~jitter:0.05

(* Five regions of one continent (modeled on US regions), two availability
   zones each.  Zones of the same region are 0.6 ms apart; a node talks to
   its own zone in 0.15 ms. *)
let continent ~num_nodes =
  let regions =
    [|
      (38.9, -77.0) (* east-1 *);
      (40.0, -83.0) (* east-2 *);
      (45.8, -119.7) (* west-2 *);
      (37.4, -122.0) (* west-1 *);
      (45.5, -73.6) (* north-1 *);
    |]
  in
  let num_zones = 2 * Array.length regions in
  let zone_coords = Array.init num_zones (fun z -> regions.(z / 2)) in
  let base = matrix_of_coords zone_coords ~same_region_ms:0.15 in
  (* Distinguish same-region cross-zone pairs from same-zone. *)
  let one_way_ms =
    Array.init num_zones (fun i ->
        Array.init num_zones (fun j ->
            if i = j then 0.15 else if i / 2 = j / 2 then 0.6 else base.(i).(j)))
  in
  make
    ~region_of:(round_robin_regions ~num_nodes ~num_regions:num_zones)
    ~one_way_ms ~jitter:0.10

(* Fifteen regions spread over all continents (AWS-like locations). *)
let world ~num_nodes =
  let regions =
    [|
      (38.9, -77.0) (* N. Virginia *);
      (40.0, -83.0) (* Ohio *);
      (45.8, -119.7) (* Oregon *);
      (37.4, -122.0) (* N. California *);
      (45.5, -73.6) (* Montreal *);
      (-23.5, -46.6) (* Sao Paulo *);
      (53.3, -6.2) (* Ireland *);
      (51.5, -0.1) (* London *);
      (50.1, 8.7) (* Frankfurt *);
      (59.3, 18.1) (* Stockholm *);
      (19.1, 72.9) (* Mumbai *);
      (1.3, 103.8) (* Singapore *);
      (35.7, 139.7) (* Tokyo *);
      (37.6, 126.9) (* Seoul *);
      (-33.9, 151.2) (* Sydney *);
    |]
  in
  let one_way_ms = matrix_of_coords regions ~same_region_ms:0.15 in
  make
    ~region_of:(round_robin_regions ~num_nodes ~num_regions:(Array.length regions))
    ~one_way_ms ~jitter:0.10

let num_nodes t = Array.length t.region_of
let num_regions t = t.num_regions

let base_latency t ~src ~dst = t.one_way_ns.(t.region_of.(src)).(t.region_of.(dst))

let sample_latency t rng ~src ~dst =
  let base = float_of_int (base_latency t ~src ~dst) in
  (* Multiplicative, strictly positive jitter: |1 + jitter * N(0,1)|. *)
  let factor = Float.abs (1.0 +. (t.jitter *. Rng.gaussian rng)) in
  int_of_float (base *. factor)

type kind = [ `Lan | `Continent | `World ]

let of_kind : kind -> num_nodes:int -> t = function
  | `Lan -> lan
  | `Continent -> continent
  | `World -> world
