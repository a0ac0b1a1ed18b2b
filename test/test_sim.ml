(* Tests for the discrete-event simulation substrate: determinism of the
   PRNG, heap ordering, engine scheduling and CPU accounting, network
   latency/bandwidth/fault models, topology sanity, and stats. *)

open Sbft_sim

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_determinism () =
  let a = Rng.create 42L and b = Rng.create 42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_seeds_differ () =
  let a = Rng.create 1L and b = Rng.create 2L in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.int64 a = Rng.int64 b then incr same
  done;
  check "streams differ" true (!same < 3)

let test_rng_split_independent () =
  let parent = Rng.create 7L in
  let child = Rng.split parent in
  let c1 = Rng.int64 child in
  (* Re-derive: same construction yields the same child stream. *)
  let parent' = Rng.create 7L in
  let child' = Rng.split parent' in
  Alcotest.(check int64) "split deterministic" c1 (Rng.int64 child')

let test_rng_int_bounds () =
  let r = Rng.create 3L in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    check "in range" true (v >= 0 && v < 17)
  done

let test_rng_float_range () =
  let r = Rng.create 4L in
  for _ = 1 to 1000 do
    let f = Rng.float r in
    check "in [0,1)" true (f >= 0.0 && f < 1.0)
  done

let test_rng_gaussian_moments () =
  let r = Rng.create 5L in
  let n = 20_000 in
  let sum = ref 0.0 and sumsq = ref 0.0 in
  for _ = 1 to n do
    let g = Rng.gaussian r in
    sum := !sum +. g;
    sumsq := !sumsq +. (g *. g)
  done;
  let mean = !sum /. float_of_int n in
  let var = (!sumsq /. float_of_int n) -. (mean *. mean) in
  check "mean ~ 0" true (Float.abs mean < 0.05);
  check "var ~ 1" true (Float.abs (var -. 1.0) < 0.1)

let test_rng_exponential_mean () =
  let r = Rng.create 6L in
  let n = 20_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential r ~mean:5.0
  done;
  let mean = !sum /. float_of_int n in
  check "mean ~ 5" true (Float.abs (mean -. 5.0) < 0.3)

let test_rng_shuffle_permutation () =
  let r = Rng.create 8L in
  let a = Array.init 50 (fun i -> i) in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 (fun i -> i)) sorted

(* The first 8 draws of each stream, as the generator gave them before
   its state moved into a [Bytes.t]: the floats by their bits, and the
   split child through [int64].  Every virtual output (latency jitter,
   keys, workloads) flows from these streams, so a change to any of them
   fails here first, with the stream, the seed and the draw index. *)
let rng_pins =
  [
    ( 11L,
      [
        ( "int64",
          [ 0x91ffa96fc4c62cceL; 0x4444dc6c30bb5874L; 0x31efd92c3de1f31eL; 0xd2a6064afafc9a8bL;
            0x7bebb8f6a3d31cfdL; 0x0ab9b90fb11165d4L; 0x06197acc103a6ce9L; 0x56dda816766d7d05L ] );
        ( "float",
          [ 0x3fe23ff52df898c5L; 0x3fd111371b0c2ed6L; 0x3fc8f7ec961ef0f8L; 0x3fea54c0c95f5f93L;
            0x3fdefaee3da8f4c6L; 0x3fa573721f6222c0L; 0x3f9865eb3040e9a0L; 0x3fd5b76a059d9b5eL ] );
        ( "gaussian",
          [ 0xbfbc5fe9cf762220L; 0x3fe990daff787e03L; 0x3ff29c157c7b8dcfL; 0xbff747a37d2aa4a8L;
            0xbfea797475c814dfL; 0xbfcc7ae02e4f6708L; 0xbf93c203017d24f9L; 0x3fe5beaab2880d79L ] );
        ( "exponential",
          [ 0x40067693ef0a7b84L; 0x401a6f373d07d22cL; 0x4020581b94afa342L; 0x3fef32a4c7a6b9b8L;
            0x400d057a1d9e52c6L; 0x402fb9bdc9ee0eddL; 0x4032af50ee00d0d0L; 0x40159dc29473dffaL ] );
        ("int 17", [ 16L; 9L; 13L; 6L; 12L; 13L; 10L; 5L ]);
        ( "split",
          [ 0x3f5d8ca922ad211fL; 0x97cc47d1a1c8421aL; 0x08829ee160f0f0a7L; 0x825687321b66cdfbL;
            0x25e29e4d029c4582L; 0x68fa44b2384c012eL; 0xf945a702b139a5e8L; 0x3d876f469c54cd03L ] );
      ] );
    ( 23L,
      [
        ( "int64",
          [ 0x58f88f76b0c822daL; 0x5cd3c35944069abeL; 0xc0b92c0f0f820d33L; 0x5c80c17d8bb6591eL;
            0x45762a19a3fd2c09L; 0x283891c1a00780a1L; 0xc2cd95de73ecef2dL; 0x4874abcbf723d7fcL ] );
        ( "float",
          [ 0x3fd63e23ddac3208L; 0x3fd734f0d65101a6L; 0x3fe8172581e1f041L; 0x3fd720305f62ed96L;
            0x3fd15d8a8668ff4aL; 0x3fc41c48e0d003c0L; 0x3fe859b2bbce7d9dL; 0x3fd21d2af2fdc8f4L ] );
        ( "gaussian",
          [ 0xbfee3d0851281204L; 0xbfdf0d93767281ddL; 0x3fec7b489e0ae0b8L; 0xbfc37ebfe0f7ffe5L;
            0xbfe0f29c1bae7082L; 0x3ffdb295bf7d1e50L; 0xbfeb1df7a1447832L; 0xbff942dfe905b4faL ] );
        ( "exponential",
          [ 0x4015232992b58b48L; 0x401449ebd8bcd740L; 0x3ff6b6b8015a659eL; 0x40145bd63afab178L;
            0x401a168bf469f567L; 0x40228204f9b9b8adL; 0x3ff5dae57e319946L; 0x40193e78b3b71462L ] );
        ("int 17", [ 4L; 0L; 16L; 6L; 2L; 14L; 11L; 9L ]);
        ( "split",
          [ 0x58757a955bf2bde7L; 0x132c9c6db278893cL; 0x5c1ea4bbef1c28d6L; 0xbe2558a4827c2804L;
            0x03c8249329443475L; 0x35c04eb4bb395faaL; 0x71a61d88e37a0691L; 0xc86d1c2a1bc00114L ] );
      ] );
  ]

let test_rng_pinned_streams () =
  let draw = function
    | "int64" -> Rng.int64
    | "float" -> fun r -> Int64.bits_of_float (Rng.float r)
    | "gaussian" -> fun r -> Int64.bits_of_float (Rng.gaussian r)
    | "exponential" -> fun r -> Int64.bits_of_float (Rng.exponential r ~mean:5.0)
    | "int 17" -> fun r -> Int64.of_int (Rng.int r 17)
    | _ -> fun r -> Rng.int64 r
  in
  List.iter
    (fun (seed, streams) ->
      List.iter
        (fun (name, expected) ->
          let r = Rng.create seed in
          let r = if name = "split" then Rng.split r else r in
          List.iteri
            (fun i want ->
              Alcotest.(check int64)
                (Printf.sprintf "seed %Ld %s draw %d" seed name i)
                want (draw name r))
            expected)
        streams)
    rng_pins

(* ------------------------------------------------------------------ *)
(* Heap *)

let test_heap_ordering () =
  let h = Heap.create () in
  let r = Rng.create 9L in
  for i = 0 to 999 do
    Heap.push h ~key0:(Rng.int r 100) ~key1:i ()
  done;
  let prev = ref (-1, -1) in
  let count = ref 0 in
  let continue = ref true in
  while !continue do
    match Heap.pop_min h with
    | None -> continue := false
    | Some (k0, k1, ()) ->
        check "nondecreasing" true (compare (k0, k1) !prev >= 0);
        prev := (k0, k1);
        incr count
  done;
  check_int "all popped" 1000 !count

let test_heap_fifo_ties () =
  let h = Heap.create () in
  for i = 0 to 9 do
    Heap.push h ~key0:5 ~key1:i i
  done;
  for expected = 0 to 9 do
    match Heap.pop_min h with
    | Some (_, _, v) -> check_int "FIFO among ties" expected v
    | None -> Alcotest.fail "heap empty early"
  done

let test_heap_empty () =
  let h : unit Heap.t = Heap.create () in
  check "empty" true (Heap.is_empty h);
  check "pop none" true (Heap.pop_min h = None);
  check "peek none" true (Heap.peek_key h = None)

(* ------------------------------------------------------------------ *)
(* Wheel — the engine's event queue; must pop in exact (key0, key1)
   order.  Each test drives it as the engine does: [min_key0], then
   [pop]. *)

(* Pop everything left as (key0, value) pairs, in pop order. *)
let drain_wheel w =
  let rec go acc =
    if Wheel.size w = 0 then List.rev acc
    else
      let k0 = Wheel.min_key0 w in
      go ((k0, Wheel.pop w) :: acc)
  in
  go []

(* The (key0, key1) pairs popped never go backwards. *)
let check_sorted name popped =
  ignore
    (List.fold_left
       (fun prev k ->
         check name true (compare k prev >= 0);
         k)
       (-1, -1) popped)

let test_wheel_ordering () =
  (* Keys spread over several orders of magnitude, pushed in random
     order; the value is key1. *)
  let w = Wheel.create ~dummy:0 in
  let r = Rng.create 9L in
  for i = 0 to 999 do
    Wheel.push w ~key0:(Rng.int r 100_000_000) ~key1:i i
  done;
  let popped = drain_wheel w in
  check_int "all popped" 1000 (List.length popped);
  check_sorted "nondecreasing" popped;
  check "drained" true (Wheel.size w = 0)

let test_wheel_fifo_ties () =
  let w = Wheel.create ~dummy:0 in
  for i = 0 to 9 do
    Wheel.push w ~key0:5 ~key1:i i
  done;
  Alcotest.(check (list int)) "FIFO among ties" (List.init 10 Fun.id)
    (List.map snd (drain_wheel w))

let test_wheel_empty () =
  let w = Wheel.create ~dummy:() in
  check "empty" true (Wheel.size w = 0);
  check_int "no min key" max_int (Wheel.min_key0 w);
  Alcotest.check_raises "pop on empty" (Invalid_argument "Wheel.pop: empty") (fun () ->
      ignore (Wheel.pop w : unit));
  Wheel.compact w ~dead:(fun () -> true);
  Wheel.push w ~key0:1 ~key1:1 ();
  check_int "min key" 1 (Wheel.min_key0 w);
  Wheel.pop w;
  check "emptied" true (Wheel.size w = 0 && Wheel.min_key0 w = max_int)

let test_wheel_interleaved_push_pop () =
  (* Pops interleaved with pushes whose keys sit between already-queued
     ones. *)
  let w = Wheel.create ~dummy:() in
  let seq = ref 0 in
  let push k =
    incr seq;
    Wheel.push w ~key0:k ~key1:!seq ()
  in
  List.iter push [ 50; 5_000; 500_000; 50_000_000 ];
  let popped = ref [] in
  for _ = 1 to 2 do
    let k0 = Wheel.min_key0 w in
    Wheel.pop w;
    popped := k0 :: !popped;
    (* push between the popped key and the remaining ones *)
    push (k0 + 1)
  done;
  let order = List.rev !popped @ List.map fst (drain_wheel w) in
  Alcotest.(check (list int)) "global order respected"
    [ 50; 51; 52; 5_000; 500_000; 50_000_000 ]
    order

let test_wheel_compact () =
  let w = Wheel.create ~dummy:0 in
  let r = Rng.create 10L in
  for i = 0 to 499 do
    Wheel.push w ~key0:(Rng.int r 1_000_000) ~key1:i i
  done;
  Wheel.compact w ~dead:(fun v -> v mod 2 = 0);
  check_int "survivor count" 250 (Wheel.size w);
  let popped = drain_wheel w in
  List.iter (fun (_, v) -> check "only odd survive" true (v mod 2 = 1)) popped;
  check_sorted "order preserved" popped;
  check_int "all survivors popped" 250 (List.length popped)

(* Property: for ANY random push/pop/compact stream, the wheel pops the
   exact same sequence as the binary heap oracle.  This is the
   replay-determinism argument in miniature: same (time, seq) total
   order, bit for bit. *)
type wheel_op = Push of int | Pop | Compact of int

let wheel_matches_heap_prop =
  let open QCheck in
  (* An op stream: [Push delta] pushes a key [delta] past the largest
     key popped so far (monotone-ish, like event times; occasionally
     huge), [Pop] pops from both and compares, [Compact m] drops every
     value divisible by [m] from both. *)
  let op_gen =
    Gen.frequency
      [
        (4, Gen.map (fun d -> Push d) (Gen.int_bound 300));
        (1, Gen.map (fun d -> Push (d * 65_537)) (Gen.int_bound 1000));
        (3, Gen.return Pop);
        (1, Gen.map (fun m -> Compact m) (Gen.int_range 2 5));
      ]
  in
  let ops_arb =
    make
      ~print:
        (Print.list (function
          | Push d -> "push+" ^ string_of_int d
          | Pop -> "pop"
          | Compact m -> "compact%" ^ string_of_int m))
      (Gen.list_size (Gen.int_range 1 200) op_gen)
  in
  Test.make ~name:"wheel pops exactly like heap" ~count:200 ops_arb
    (fun ops ->
      let h = Heap.create () and w = Wheel.create ~dummy:0 in
      let seq = ref 0 and floor = ref 0 in
      (* Pop one entry from each side as (key0, value). *)
      let pop_both () =
        let from_wheel =
          if Wheel.size w = 0 then None
          else
            let k0 = Wheel.min_key0 w in
            Some (k0, Wheel.pop w)
        in
        (Option.map (fun (k0, _, v) -> (k0, v)) (Heap.pop_min h), from_wheel)
      in
      (* The oracle has no compact: rebuild it from the entries kept. *)
      let compact_heap dead =
        let rec take acc =
          match Heap.pop_min h with Some e -> take (e :: acc) | None -> acc
        in
        List.iter
          (fun (k0, k1, v) -> if not (dead v) then Heap.push h ~key0:k0 ~key1:k1 v)
          (take [])
      in
      List.for_all
        (function
          | Push delta ->
              let k = !floor + delta in
              incr seq;
              Heap.push h ~key0:k ~key1:!seq !seq;
              Wheel.push w ~key0:k ~key1:!seq !seq;
              true
          | Pop -> (
              match pop_both () with
              | None, None -> true
              | Some ((k, _) as a), Some b ->
                  floor := max !floor k;
                  a = b
              | _ -> false)
          | Compact m ->
              let dead v = v mod m = 0 in
              compact_heap dead;
              Wheel.compact w ~dead;
              Heap.size h = Wheel.size w)
        ops
      && begin
           (* Drain the remainder: orders must match to the end. *)
           let rec drain () =
             match pop_both () with
             | None, None -> true
             | Some a, Some b -> a = b && drain ()
             | _ -> false
           in
           drain ()
         end)

(* ------------------------------------------------------------------ *)
(* Engine *)

let test_engine_schedule_order () =
  let eng = Engine.create ~num_nodes:1 ~seed:1L () in
  let log = ref [] in
  Engine.schedule eng ~at:(Engine.ms 3) (fun () -> log := 3 :: !log);
  Engine.schedule eng ~at:(Engine.ms 1) (fun () -> log := 1 :: !log);
  Engine.schedule eng ~at:(Engine.ms 2) (fun () -> log := 2 :: !log);
  Engine.run_all eng;
  Alcotest.(check (list int)) "time order" [ 1; 2; 3 ] (List.rev !log)

let test_engine_cpu_serialization () =
  (* Two messages arrive at t=0; each charges 1 ms of CPU: the second
     handler must start at 1 ms. *)
  let eng = Engine.create ~num_nodes:1 ~seed:1L () in
  let starts = ref [] in
  let handler c =
    starts := Engine.ctx_now c :: !starts;
    Engine.charge c (Engine.ms 1)
  in
  Engine.dispatch eng ~dst:0 ~at:0 handler;
  Engine.dispatch eng ~dst:0 ~at:0 handler;
  Engine.run_all eng;
  Alcotest.(check (list int)) "serialized" [ 0; Engine.ms 1 ] (List.rev !starts)

let test_engine_cpu_scale () =
  let eng = Engine.create ~num_nodes:1 ~seed:1L () in
  Engine.set_cpu_scale eng 0 2.0;
  let done_at = ref 0 in
  Engine.dispatch eng ~dst:0 ~at:0 (fun c ->
      Engine.charge c (Engine.ms 1);
      done_at := Engine.ctx_now c);
  Engine.run_all eng;
  check_int "scaled charge" (Engine.ms 2) !done_at

let test_engine_crash_drops () =
  let eng = Engine.create ~num_nodes:2 ~seed:1L () in
  let hits = ref 0 in
  Engine.crash eng 1;
  Engine.dispatch eng ~dst:1 ~at:(Engine.ms 1) (fun _ -> incr hits);
  Engine.dispatch eng ~dst:0 ~at:(Engine.ms 1) (fun _ -> incr hits);
  Engine.run_all eng;
  check_int "only live node runs" 1 !hits

let test_engine_recover () =
  let eng = Engine.create ~num_nodes:1 ~seed:1L () in
  let hits = ref 0 in
  Engine.crash eng 0;
  Engine.dispatch eng ~dst:0 ~at:(Engine.ms 1) (fun _ -> incr hits);
  Engine.schedule eng ~at:(Engine.ms 2) (fun () -> Engine.recover eng 0);
  Engine.dispatch eng ~dst:0 ~at:(Engine.ms 3) (fun _ -> incr hits);
  Engine.run_all eng;
  check_int "post-recovery delivery" 1 !hits

let test_engine_timer_cancel () =
  let eng = Engine.create ~num_nodes:1 ~seed:1L () in
  let fired = ref false in
  let tm = Engine.set_timer eng ~node:0 ~after:(Engine.ms 5) (fun _ -> fired := true) in
  Engine.schedule eng ~at:(Engine.ms 1) (fun () -> Engine.cancel_timer tm);
  Engine.run_all eng;
  check "cancelled" false !fired

let test_engine_run_until () =
  let eng = Engine.create ~num_nodes:1 ~seed:1L () in
  let hits = ref 0 in
  Engine.schedule eng ~at:(Engine.ms 1) (fun () -> incr hits);
  Engine.schedule eng ~at:(Engine.ms 10) (fun () -> incr hits);
  Engine.run_until eng (Engine.ms 5);
  check_int "only early event" 1 !hits;
  check_int "clock advanced to deadline" (Engine.ms 5) (Engine.now eng);
  Engine.run_all eng;
  check_int "rest runs" 2 !hits

let test_engine_determinism () =
  let run () =
    let eng = Engine.create ~num_nodes:3 ~seed:99L () in
    let topo = Topology.world ~num_nodes:3 in
    let net = Network.create ~topology:topo () in
    let log = ref [] in
    for i = 0 to 20 do
      Network.send net eng ~src:(i mod 3) ~dst:((i + 1) mod 3) ~size:100 ~at:0
        (fun c -> log := (Engine.self c, Engine.ctx_now c) :: !log)
    done;
    Engine.run_all eng;
    !log
  in
  check "identical traces" true (run () = run ())

let test_engine_fifo_under_load () =
  (* Many zero-charge handlers queued behind a long one run in arrival
     order, each exactly once. *)
  let eng = Engine.create ~num_nodes:1 ~seed:1L () in
  let order = ref [] in
  Engine.dispatch eng ~dst:0 ~at:0 (fun c -> Engine.charge c (Engine.ms 10));
  for i = 1 to 50 do
    Engine.dispatch eng ~dst:0 ~at:(Engine.us i) (fun _ -> order := i :: !order)
  done;
  Engine.run_all eng;
  Alcotest.(check (list int)) "FIFO order" (List.init 50 (fun i -> i + 1))
    (List.rev !order)

let test_engine_cancel_storm () =
  (* Retry/backoff patterns set and cancel timers constantly.  Lazy
     purging must keep the queue from accumulating dead entries: after
     50k set+cancel pairs the pending count reflects live events only,
     and the queue itself has been compacted. *)
  let eng = Engine.create ~num_nodes:1 ~seed:1L () in
  let fired = ref 0 in
  for i = 1 to 50_000 do
    let tm =
      Engine.set_timer eng ~node:0 ~after:(Engine.ms (1_000 + i)) (fun _ -> incr fired)
    in
    Engine.cancel_timer tm
  done;
  let keeper = Engine.set_timer eng ~node:0 ~after:(Engine.ms 1) (fun _ -> incr fired) in
  ignore (keeper : Engine.timer);
  check "pending reflects live events only" true (Engine.pending_events eng <= 1 + 64);
  let p = Engine.profile eng in
  check "purge actually ran" true (p.Engine.p_timers_purged > 0);
  Engine.run_all eng;
  check_int "only the live timer fired" 1 !fired;
  (* Skipped-at-pop and purged-by-compaction cancelled timers must
     account for every cancellation. *)
  let p = Engine.profile eng in
  check_int "all cancellations accounted" 50_000
    (p.Engine.p_timers_purged + p.Engine.p_timers_skipped)

let test_engine_fifo_drain_batch () =
  (* All work due at the same instant on one node drains back-to-back
     in seq order through the reused per-node ctx — one drain event,
     not a requeue per item. *)
  let eng = Engine.create ~num_nodes:1 ~seed:1L () in
  let order = ref [] in
  for i = 1 to 100 do
    Engine.dispatch eng ~dst:0 ~at:(Engine.ms 1) (fun c ->
        order := (i, Engine.ctx_now c) :: !order;
        Engine.charge c (Engine.us 10))
  done;
  Engine.run_all eng;
  let entries = List.rev !order in
  Alcotest.(check (list int)) "seq order" (List.init 100 (fun i -> i + 1))
    (List.map fst entries);
  (* Each handler starts when the previous one's charge finished. *)
  List.iteri
    (fun i (_, at) -> check_int "serialized starts" (Engine.ms 1 + Engine.us (10 * i)) at)
    entries

let test_engine_recover_mid_drain () =
  (* A crash arriving while a node's FIFO queue is draining kills the
     queued messages but holds the queued timer and the one coming due
     while down; recovery runs both, in order, on a clean, working CPU. *)
  let eng = Engine.create ~num_nodes:1 ~seed:1L () in
  let ran = ref [] in
  (* Two handlers and a timer queue behind a 10ms charge; the crash at
     2ms lands while they wait, and a second timer comes due at 3ms. *)
  Engine.dispatch eng ~dst:0 ~at:0 (fun c ->
      ran := 0 :: !ran;
      Engine.charge c (Engine.ms 10));
  Engine.dispatch eng ~dst:0 ~at:(Engine.ms 1) (fun _ -> ran := 1 :: !ran);
  ignore (Engine.set_timer eng ~node:0 ~after:(Engine.ms 1) (fun _ -> ran := 10 :: !ran));
  Engine.dispatch eng ~dst:0 ~at:(Engine.ms 1) (fun _ -> ran := 2 :: !ran);
  ignore
    (Engine.set_timer eng ~node:0 ~after:(Engine.ms 3) (fun c ->
         ran := 11 :: !ran;
         check_int "held timers run at recovery" (Engine.ms 5) (Engine.ctx_now c)));
  Engine.schedule eng ~at:(Engine.ms 2) (fun () -> Engine.crash eng 0);
  Engine.schedule eng ~at:(Engine.ms 5) (fun () -> Engine.recover eng 0);
  (* Post-recovery work runs immediately: the CPU is free again even
     though the pre-crash charge claimed it until 10ms. *)
  Engine.dispatch eng ~dst:0 ~at:(Engine.ms 6) (fun c ->
      ran := 3 :: !ran;
      check_int "recovered CPU free at once" (Engine.ms 6) (Engine.ctx_now c));
  Engine.run_all eng;
  Alcotest.(check (list int)) "queued messages died, timers were held" [ 0; 10; 11; 3 ]
    (List.rev !ran)

let test_engine_recover_live_noop () =
  (* Recovering a node that is not crashed changes nothing: work queued
     behind a busy CPU still runs, once the CPU frees up. *)
  let eng = Engine.create ~num_nodes:1 ~seed:1L () in
  let starts = ref [] in
  Engine.dispatch eng ~dst:0 ~at:0 (fun c -> Engine.charge c (Engine.ms 10));
  Engine.dispatch eng ~dst:0 ~at:(Engine.ms 1) (fun c -> starts := Engine.ctx_now c :: !starts);
  Engine.schedule eng ~at:(Engine.ms 2) (fun () -> Engine.recover eng 0);
  Engine.run_all eng;
  Alcotest.(check (list int)) "queued work survives" [ Engine.ms 10 ] !starts

let test_engine_crash_clears_queue () =
  (* Work queued on a busy CPU dies with the crash; post-recovery work
     runs. *)
  let eng = Engine.create ~num_nodes:1 ~seed:1L () in
  let hits = ref 0 in
  Engine.dispatch eng ~dst:0 ~at:0 (fun c -> Engine.charge c (Engine.ms 10));
  Engine.dispatch eng ~dst:0 ~at:(Engine.ms 1) (fun _ -> incr hits);
  Engine.schedule eng ~at:(Engine.ms 2) (fun () -> Engine.crash eng 0);
  Engine.schedule eng ~at:(Engine.ms 20) (fun () -> Engine.recover eng 0);
  Engine.dispatch eng ~dst:0 ~at:(Engine.ms 30) (fun _ -> hits := !hits + 10);
  Engine.run_all eng;
  Alcotest.(check int) "queued work lost, later work runs" 10 !hits

(* ------------------------------------------------------------------ *)
(* Topology / Network *)

let test_topology_symmetric_base () =
  let topo = Topology.world ~num_nodes:30 in
  for s = 0 to 29 do
    for d = 0 to 29 do
      check_int "symmetric"
        (Topology.base_latency topo ~src:s ~dst:d)
        (Topology.base_latency topo ~src:d ~dst:s)
    done
  done

let test_topology_world_slower_than_continent () =
  let w = Topology.world ~num_nodes:30 and c = Topology.continent ~num_nodes:30 in
  let avg topo =
    let sum = ref 0 and count = ref 0 in
    for s = 0 to 29 do
      for d = 0 to 29 do
        if s <> d then begin
          sum := !sum + Topology.base_latency topo ~src:s ~dst:d;
          incr count
        end
      done
    done;
    float_of_int !sum /. float_of_int !count
  in
  check "world has higher mean latency" true (avg w > avg c)

let test_topology_custom_matrix () =
  let topo =
    Topology.make
      ~region_of:[| 0; 1; 0 |]
      ~one_way_ms:[| [| 0.1; 25.0 |]; [| 25.0; 0.1 |] |]
      ~jitter:0.0
  in
  check_int "regions" 2 (Topology.num_regions topo);
  check_int "same region" (Engine.ms_f 0.1) (Topology.base_latency topo ~src:0 ~dst:2);
  check_int "cross region" (Engine.ms 25) (Topology.base_latency topo ~src:0 ~dst:1);
  (* Zero jitter: sampling equals the base. *)
  let r = Rng.create 1L in
  check_int "no jitter" (Engine.ms 25) (Topology.sample_latency topo r ~src:0 ~dst:1)

let test_topology_lan_fast () =
  let topo = Topology.lan ~num_nodes:4 in
  check "lan < 1ms" true (Topology.base_latency topo ~src:0 ~dst:3 < Engine.ms 1)

let test_network_delivery_latency () =
  let topo = Topology.lan ~num_nodes:2 in
  let eng = Engine.create ~num_nodes:2 ~seed:5L () in
  let net = Network.create ~topology:topo () in
  let arrival = ref (-1) in
  Network.send net eng ~src:0 ~dst:1 ~size:100 ~at:0 (fun c ->
      arrival := Engine.ctx_now c);
  Engine.run_all eng;
  check "arrived" true (!arrival > 0);
  check "latency plausible" true (!arrival < Engine.ms 1)

let test_network_bandwidth_serializes () =
  (* A 10 MB message at 10 Gbit/s takes ~8 ms of NIC time: two messages
     sent back-to-back must arrive roughly 8 ms apart. *)
  let topo = Topology.lan ~num_nodes:2 in
  let eng = Engine.create ~num_nodes:2 ~seed:5L () in
  let net = Network.create ~topology:topo () in
  let arrivals = ref [] in
  for _ = 1 to 2 do
    Network.send net eng ~src:0 ~dst:1 ~size:10_000_000 ~at:0 (fun c ->
        arrivals := Engine.ctx_now c :: !arrivals)
  done;
  Engine.run_all eng;
  match List.rev !arrivals with
  | [ a1; a2 ] ->
      let gap = a2 - a1 in
      check "gap ~ 8ms" true (gap > Engine.ms 6 && gap < Engine.ms 12)
  | _ -> Alcotest.fail "expected two arrivals"

let test_network_partition () =
  let topo = Topology.lan ~num_nodes:4 in
  let eng = Engine.create ~num_nodes:4 ~seed:5L () in
  let net = Network.create ~topology:topo () in
  Network.set_partition net ~groups:(Some [| 0; 0; 1; 1 |]);
  let hits = ref 0 in
  Network.send net eng ~src:0 ~dst:2 ~size:10 ~at:0 (fun _ -> incr hits);
  Network.send net eng ~src:0 ~dst:1 ~size:10 ~at:0 (fun _ -> incr hits);
  Engine.run_all eng;
  check_int "cross-partition dropped" 1 !hits;
  Network.set_partition net ~groups:None;
  Network.send net eng ~src:0 ~dst:2 ~size:10 ~at:(Engine.now eng) (fun _ -> incr hits);
  Engine.run_all eng;
  check_int "healed" 2 !hits

let test_network_link_down () =
  let topo = Topology.lan ~num_nodes:2 in
  let eng = Engine.create ~num_nodes:2 ~seed:5L () in
  let net = Network.create ~topology:topo () in
  Network.set_link net ~src:0 ~dst:1 ~up:false;
  let hits = ref 0 in
  Network.send net eng ~src:0 ~dst:1 ~size:10 ~at:0 (fun _ -> incr hits);
  Network.send net eng ~src:1 ~dst:0 ~size:10 ~at:0 (fun _ -> incr hits);
  Engine.run_all eng;
  check_int "directed link down" 1 !hits

let test_network_extra_delay () =
  let topo = Topology.lan ~num_nodes:2 in
  let eng = Engine.create ~num_nodes:2 ~seed:5L () in
  let net = Network.create ~topology:topo () in
  Network.set_extra_delay net ~src:0 ~dst:1 (Engine.ms 50);
  let arrival = ref 0 in
  Network.send net eng ~src:0 ~dst:1 ~size:10 ~at:0 (fun c ->
      arrival := Engine.ctx_now c);
  Engine.run_all eng;
  check "delayed" true (!arrival >= Engine.ms 50)

let test_network_counters () =
  let topo = Topology.lan ~num_nodes:2 in
  let eng = Engine.create ~num_nodes:2 ~seed:5L () in
  let net = Network.create ~topology:topo () in
  Network.send net eng ~src:0 ~dst:1 ~size:100 ~at:0 (fun _ -> ());
  Network.send net eng ~src:1 ~dst:0 ~size:50 ~at:0 (fun _ -> ());
  Engine.run_all eng;
  Alcotest.(check int) "messages" 2 (Network.messages_sent net);
  Alcotest.(check int) "bytes" 150 (Network.bytes_sent net);
  Network.reset_counters net;
  Alcotest.(check int) "reset" 0 (Network.messages_sent net)

let test_network_drop_prob () =
  let topo = Topology.lan ~num_nodes:2 in
  let eng = Engine.create ~num_nodes:2 ~seed:5L () in
  let net = Network.create ~topology:topo () in
  Network.set_drop_prob net 1.0;
  let hits = ref 0 in
  Network.send net eng ~src:0 ~dst:1 ~size:10 ~at:0 (fun _ -> incr hits);
  Engine.run_all eng;
  check_int "all dropped" 0 !hits;
  check_int "accounted" 1 (Network.messages_dropped net)

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_stats_latency () =
  let l = Stats.Latency.create () in
  List.iter (fun x -> Stats.Latency.add l (Engine.ms x)) [ 1; 2; 3; 4; 5 ];
  Alcotest.(check (float 0.001)) "mean" 3.0 (Stats.Latency.mean_ms l);
  Alcotest.(check (float 0.001)) "median" 3.0 (Stats.Latency.median_ms l);
  Alcotest.(check (float 0.001)) "max" 5.0 (Stats.Latency.max_ms l);
  Alcotest.(check (float 0.001)) "p0" 1.0 (Stats.Latency.percentile_ms l 0.0)

let test_stats_throughput () =
  let t = Stats.Throughput.create () in
  for i = 1 to 10 do
    Stats.Throughput.add t ~at:(Engine.ms (100 * i)) 5
  done;
  check_int "total" 50 (Stats.Throughput.total t);
  (* 5 events in [300ms, 800ms) -> 25 ops in 0.5 s -> 50 ops/s *)
  Alcotest.(check (float 0.01)) "windowed rate" 50.0
    (Stats.Throughput.rate t ~from_:(Engine.ms 300) ~until:(Engine.ms 800))

(* ------------------------------------------------------------------ *)
(* Trace *)

let test_trace () =
  let tr = Trace.create ~enabled:true () in
  Trace.emit tr ~time:0 ~node:1 ~kind:"send" ~detail:(fun () -> "x");
  Trace.emit tr ~time:1 ~node:2 ~kind:"recv" ~detail:(fun () -> "y");
  check_int "records" 2 (List.length (Trace.records tr));
  check_int "find" 1 (List.length (Trace.find_all tr ~kind:"send"));
  Trace.set_enabled tr false;
  Trace.emit tr ~time:2 ~node:3 ~kind:"send" ~detail:(fun () -> "z");
  check_int "disabled drops" 2 (List.length (Trace.records tr))

(* ------------------------------------------------------------------ *)
(* Replay (R8) *)

let replay_records () =
  [
    { Trace.time = 0; node = 0; kind = "send"; detail = "a" };
    { Trace.time = 1; node = 1; kind = "recv"; detail = "a" };
    { Trace.time = 2; node = 0; kind = "send"; detail = "b" };
  ]

let test_replay_identical () =
  match Replay.run_twice ~run:replay_records with
  | Replay.Identical s ->
      check_int "events" 3 s.Replay.events;
      check_int "nodes" 2 (List.length s.Replay.nodes)
  | Replay.Diverged _ -> Alcotest.fail "identical traces reported diverged"

let test_replay_detects_divergence () =
  let calls = ref 0 in
  let run () =
    incr calls;
    if !calls = 1 then replay_records ()
    else
      (* Second run flips one detail: must be caught, with the index. *)
      List.mapi
        (fun i (r : Trace.record) ->
          if i = 1 then { r with Trace.detail = "a'" } else r)
        (replay_records ())
  in
  match Replay.run_twice ~run with
  | Replay.Identical _ -> Alcotest.fail "divergence missed"
  | Replay.Diverged d -> check_int "first differing event" 1 d.Replay.index

let test_replay_detects_truncation () =
  let calls = ref 0 in
  let run () =
    incr calls;
    if !calls = 1 then replay_records ()
    else [ List.hd (replay_records ()) ]
  in
  match Replay.run_twice ~run with
  | Replay.Identical _ -> Alcotest.fail "truncation missed"
  | Replay.Diverged d ->
      check_int "diverges where the short run ends" 1 d.Replay.index;
      check "second run has no event there" true (d.Replay.second = None)

let test_replay_digest_sensitivity () =
  let d1 = Replay.digest_records (replay_records ()) in
  let d2 =
    Replay.digest_records
      (List.map
         (fun (r : Trace.record) -> { r with Trace.node = r.Trace.node + 1 })
         (replay_records ()))
  in
  check "digest depends on content" false (Int64.equal d1 d2);
  Alcotest.(check int64)
    "digest is a pure function" d1
    (Replay.digest_records (replay_records ()))

let () =
  Alcotest.run "sbft_sim"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "seeds differ" `Quick test_rng_seeds_differ;
          Alcotest.test_case "split independent" `Quick test_rng_split_independent;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "gaussian moments" `Quick test_rng_gaussian_moments;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "pinned streams" `Quick test_rng_pinned_streams;
        ] );
      ( "heap",
        [
          Alcotest.test_case "ordering" `Quick test_heap_ordering;
          Alcotest.test_case "fifo ties" `Quick test_heap_fifo_ties;
          Alcotest.test_case "empty" `Quick test_heap_empty;
        ] );
      ( "wheel",
        [
          Alcotest.test_case "ordering" `Quick test_wheel_ordering;
          Alcotest.test_case "fifo ties" `Quick test_wheel_fifo_ties;
          Alcotest.test_case "empty" `Quick test_wheel_empty;
          Alcotest.test_case "interleaved push/pop" `Quick test_wheel_interleaved_push_pop;
          Alcotest.test_case "compact" `Quick test_wheel_compact;
          QCheck_alcotest.to_alcotest wheel_matches_heap_prop;
        ] );
      ( "engine",
        [
          Alcotest.test_case "schedule order" `Quick test_engine_schedule_order;
          Alcotest.test_case "cpu serialization" `Quick test_engine_cpu_serialization;
          Alcotest.test_case "cpu scale" `Quick test_engine_cpu_scale;
          Alcotest.test_case "crash drops" `Quick test_engine_crash_drops;
          Alcotest.test_case "recover" `Quick test_engine_recover;
          Alcotest.test_case "timer cancel" `Quick test_engine_timer_cancel;
          Alcotest.test_case "run until" `Quick test_engine_run_until;
          Alcotest.test_case "determinism" `Quick test_engine_determinism;
          Alcotest.test_case "fifo under load" `Quick test_engine_fifo_under_load;
          Alcotest.test_case "cancel storm" `Quick test_engine_cancel_storm;
          Alcotest.test_case "fifo drain batch" `Quick test_engine_fifo_drain_batch;
          Alcotest.test_case "recover mid-drain" `Quick test_engine_recover_mid_drain;
          Alcotest.test_case "recover live node" `Quick test_engine_recover_live_noop;
          Alcotest.test_case "crash clears queue" `Quick test_engine_crash_clears_queue;
        ] );
      ( "topology",
        [
          Alcotest.test_case "symmetric" `Quick test_topology_symmetric_base;
          Alcotest.test_case "world slower" `Quick test_topology_world_slower_than_continent;
          Alcotest.test_case "lan fast" `Quick test_topology_lan_fast;
          Alcotest.test_case "custom matrix" `Quick test_topology_custom_matrix;
        ] );
      ( "network",
        [
          Alcotest.test_case "delivery latency" `Quick test_network_delivery_latency;
          Alcotest.test_case "bandwidth" `Quick test_network_bandwidth_serializes;
          Alcotest.test_case "partition" `Quick test_network_partition;
          Alcotest.test_case "link down" `Quick test_network_link_down;
          Alcotest.test_case "extra delay" `Quick test_network_extra_delay;
          Alcotest.test_case "drop prob" `Quick test_network_drop_prob;
          Alcotest.test_case "counters" `Quick test_network_counters;
        ] );
      ( "stats",
        [
          Alcotest.test_case "latency" `Quick test_stats_latency;
          Alcotest.test_case "throughput" `Quick test_stats_throughput;
        ] );
      ("trace", [ Alcotest.test_case "basic" `Quick test_trace ]);
      ( "replay",
        [
          Alcotest.test_case "identical runs" `Quick test_replay_identical;
          Alcotest.test_case "divergence detected" `Quick test_replay_detects_divergence;
          Alcotest.test_case "truncation detected" `Quick test_replay_detects_truncation;
          Alcotest.test_case "digest sensitivity" `Quick test_replay_digest_sensitivity;
        ] );
    ]
