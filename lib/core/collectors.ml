let primary ~config ~view = view mod Config.n config

(* Deterministic pseudo-random choice of [count] distinct non-primary
   replicas for (view, seq, salt): hash-seeded selection so every
   replica computes the same groups without communication. *)
let memo : (int * int * int * int * int, int list) Hashtbl.t = Hashtbl.create 4096

let pick ~config ~view ~seq ~salt ~count =
  let n = Config.n config in
  let p = primary ~config ~view in
  let count = min count (n - 1) in
  match Hashtbl.find_opt memo (n, view, seq, salt, count) with
  | Some cached -> cached
  | None ->
  let chosen = ref [] in
      let taken = Array.make n false in
      taken.(p) <- true;
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
      let result = List.rev !chosen in
      Hashtbl.replace memo (n, view, seq, salt, count) result;
      result

let c_collectors ~config ~view ~seq = pick ~config ~view ~seq ~salt:1 ~count:(config.Config.c + 1)

let e_collectors ~config ~view ~seq = pick ~config ~view ~seq ~salt:2 ~count:(config.Config.c + 1)

let slow_path_collectors ~config ~view ~seq =
  c_collectors ~config ~view ~seq @ [ primary ~config ~view ]

let rank lst r =
  let rec go i = function
    | [] -> None
    | x :: rest -> if Int.equal x r then Some i else go (i + 1) rest
  in
  go 0 lst
