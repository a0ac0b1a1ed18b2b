let primary ~config ~view = view mod Config.n config

(* Deterministic pseudo-random choice of [c + 1] distinct non-primary
   replicas for (view, seq, salt): hash-seeded selection so every
   replica computes the same groups without communication.  The
   cluster's keys memoize each group. *)
let pick keys ~view ~seq ~salt =
  Keys.collector_group keys ~view ~seq ~salt (fun () ->
      let config = keys.Keys.config in
      let n = Config.n config in
      let count = min (config.Config.c + 1) (n - 1) in
      let chosen = ref [] in
      let taken = Array.make n false in
      taken.(primary ~config ~view) <- true;
      let attempt = ref 0 in
      let found = ref 0 in
      while !found < count do
        let d =
          Sbft_crypto.Sha256.digest
            (Printf.sprintf "collector-%d-%d-%d-%d" salt view seq !attempt)
        in
        let idx = Char.code d.[0] lor (Char.code d.[1] lsl 8) in
        let r = idx mod n in
        if not taken.(r) then begin
          taken.(r) <- true;
          chosen := r :: !chosen;
          incr found
        end;
        incr attempt
      done;
      List.rev !chosen)

let c_collectors keys ~view ~seq = pick keys ~view ~seq ~salt:1

let e_collectors keys ~view ~seq = pick keys ~view ~seq ~salt:2

let slow_path_collectors keys ~view ~seq =
  c_collectors keys ~view ~seq @ [ primary ~config:keys.Keys.config ~view ]

let exec_path_collectors keys ~view ~seq =
  e_collectors keys ~view:0 ~seq @ [ primary ~config:keys.Keys.config ~view ]

let rank lst r =
  let rec go i = function
    | [] -> None
    | x :: rest -> if Int.equal x r then Some i else go (i + 1) rest
  in
  go 0 lst
