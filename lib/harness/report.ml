let hr = String.make 96 '-'

(* ------------------------------------------------------------------ *)
(* Minimal JSON: just enough for the benchmark regression reports
   (BENCH_*.json / bench/baseline.json).  Hand-rolled so the harness
   stays dependency-free; the emitter produces deterministic,
   diff-friendly output and the parser reads back exactly what the
   emitter writes (plus ordinary interchange JSON). *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  let escape b s =
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\r' -> Buffer.add_string b "\\r"
        | '\t' -> Buffer.add_string b "\\t"
        | c when Char.code c < 32 ->
            Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s

  (* JSON has no infinity or NaN: a non-finite number (the ci95 of a
     one-seed sweep) is written as null. *)
  let number_to_string x =
    if not (Float.is_finite x) then "null"
    else if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
    else
      (* Shortest representation that still round-trips exactly. *)
      let s = Printf.sprintf "%.12g" x in
      if float_of_string s = x then s else Printf.sprintf "%.17g" x

  let to_string v =
    let b = Buffer.create 4096 in
    let pad n = Buffer.add_string b (String.make n ' ') in
    let rec go indent v =
      match v with
      | Null -> Buffer.add_string b "null"
      | Bool v -> Buffer.add_string b (if v then "true" else "false")
      | Num x -> Buffer.add_string b (number_to_string x)
      | Str s ->
          Buffer.add_char b '"';
          escape b s;
          Buffer.add_char b '"'
      | Arr [] -> Buffer.add_string b "[]"
      | Arr items ->
          Buffer.add_string b "[\n";
          List.iteri
            (fun i item ->
              if i > 0 then Buffer.add_string b ",\n";
              pad (indent + 2);
              go (indent + 2) item)
            items;
          Buffer.add_char b '\n';
          pad indent;
          Buffer.add_char b ']'
      | Obj [] -> Buffer.add_string b "{}"
      | Obj fields ->
          Buffer.add_string b "{\n";
          List.iteri
            (fun i (k, item) ->
              if i > 0 then Buffer.add_string b ",\n";
              pad (indent + 2);
              Buffer.add_char b '"';
              escape b k;
              Buffer.add_string b "\": ";
              go (indent + 2) item)
            fields;
          Buffer.add_char b '\n';
          pad indent;
          Buffer.add_char b '}'
    in
    go 0 v;
    Buffer.add_char b '\n';
    Buffer.contents b

  exception Bad of string

  let parse s =
    let n = String.length s in
    let pos = ref 0 in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let fail msg = raise (Bad (Printf.sprintf "%s at offset %d" msg !pos)) in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
          advance ();
          skip_ws ()
      | _ -> ()
    in
    let expect c =
      match peek () with
      | Some c' when Char.equal c c' -> advance ()
      | _ -> fail (Printf.sprintf "expected %c" c)
    in
    let literal word v =
      let l = String.length word in
      if !pos + l <= n && String.equal (String.sub s !pos l) word then begin
        pos := !pos + l;
        v
      end
      else fail (Printf.sprintf "expected %s" word)
    in
    let parse_string () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        if !pos >= n then fail "unterminated string"
        else
          let c = s.[!pos] in
          advance ();
          match c with
          | '"' -> Buffer.contents b
          | '\\' -> (
              if !pos >= n then fail "unterminated escape"
              else
                let e = s.[!pos] in
                advance ();
                match e with
                | '"' | '\\' | '/' -> Buffer.add_char b e; go ()
                | 'n' -> Buffer.add_char b '\n'; go ()
                | 'r' -> Buffer.add_char b '\r'; go ()
                | 't' -> Buffer.add_char b '\t'; go ()
                | 'b' -> Buffer.add_char b '\b'; go ()
                | 'f' -> Buffer.add_char b '\012'; go ()
                | 'u' ->
                    if !pos + 4 > n then fail "truncated \\u escape"
                    else begin
                      let code =
                        match int_of_string_opt ("0x" ^ String.sub s !pos 4) with
                        | Some code -> code
                        | None -> fail "bad \\u escape"
                      in
                      pos := !pos + 4;
                      (* ASCII only — all this harness ever emits. *)
                      if code < 128 then Buffer.add_char b (Char.chr code)
                      else Buffer.add_char b '?';
                      go ()
                    end
                | _ -> fail "bad escape")
          | c -> Buffer.add_char b c; go ()
      in
      go ()
    in
    let parse_number () =
      let start = !pos in
      let num_char c =
        match c with
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      let rec go () =
        match peek () with
        | Some c when num_char c ->
            advance ();
            go ()
        | _ -> ()
      in
      go ();
      if !pos = start then fail "expected number"
      else
        match float_of_string_opt (String.sub s start (!pos - start)) with
        | Some x -> x
        | None -> fail "bad number"
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | Some '"' -> Str (parse_string ())
      | Some '{' ->
          advance ();
          skip_ws ();
          if peek () = Some '}' then begin
            advance ();
            Obj []
          end
          else begin
            let fields = ref [] in
            let rec fields_loop () =
              skip_ws ();
              let k = parse_string () in
              skip_ws ();
              expect ':';
              let v = parse_value () in
              fields := (k, v) :: !fields;
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  fields_loop ()
              | Some '}' -> advance ()
              | _ -> fail "expected , or }"
            in
            fields_loop ();
            Obj (List.rev !fields)
          end
      | Some '[' ->
          advance ();
          skip_ws ();
          if peek () = Some ']' then begin
            advance ();
            Arr []
          end
          else begin
            let items = ref [] in
            let rec items_loop () =
              let v = parse_value () in
              items := v :: !items;
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  items_loop ()
              | Some ']' -> advance ()
              | _ -> fail "expected , or ]"
            in
            items_loop ();
            Arr (List.rev !items)
          end
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some _ -> Num (parse_number ())
      | None -> fail "unexpected end of input"
    in
    match
      let v = parse_value () in
      skip_ws ();
      if !pos < n then fail "trailing garbage" else v
    with
    | v -> Ok v
    | exception Bad msg -> Error msg

  (* Accessors used by the regression comparator. *)
  let member key = function
    | Obj fields -> List.assoc_opt key fields
    | _ -> None

  let to_float = function Num x -> Some x | _ -> None
  let to_str = function Str s -> Some s | _ -> None
end

(* Per-phase event counts from the engine hot path, in the shape the
   paper-scale profile artifact uploads. *)
let json_of_profile (p : Sbft_sim.Engine.profile) =
  Json.Obj
    [
      ("executed", Json.Num (float_of_int p.Sbft_sim.Engine.p_executed));
      ("thunks", Json.Num (float_of_int p.Sbft_sim.Engine.p_thunks));
      ("arrivals", Json.Num (float_of_int p.Sbft_sim.Engine.p_arrivals));
      ("timers_fired", Json.Num (float_of_int p.Sbft_sim.Engine.p_timers_fired));
      ("timers_skipped", Json.Num (float_of_int p.Sbft_sim.Engine.p_timers_skipped));
      ("timers_purged", Json.Num (float_of_int p.Sbft_sim.Engine.p_timers_purged));
      ("max_pending", Json.Num (float_of_int p.Sbft_sim.Engine.p_max_pending));
    ]

let print_throughput_table ~title ~clients ~rows =
  Printf.printf "\n%s\n%s\n" title hr;
  Printf.printf "%-22s" "protocol";
  List.iter (fun c -> Printf.printf "%12s" (Printf.sprintf "%d cl" c)) clients;
  print_newline ();
  List.iter
    (fun (name, points) ->
      Printf.printf "%-22s" name;
      List.iter
        (fun (p : Scenario.point) -> Printf.printf "%12.0f" p.Scenario.throughput_ops)
        points;
      print_newline ())
    rows;
  Printf.printf "%s\n(cells: operations/second)\n%!" hr

let print_latency_table ~title ~clients ~rows =
  Printf.printf "\n%s\n%s\n" title hr;
  Printf.printf "%-22s" "protocol";
  List.iter (fun c -> Printf.printf "%18s" (Printf.sprintf "%d cl" c)) clients;
  print_newline ();
  List.iter
    (fun (name, points) ->
      Printf.printf "%-22s" name;
      List.iter
        (fun (p : Scenario.point) ->
          Printf.printf "%18s"
            (Printf.sprintf "%.0fms@%.0f" p.Scenario.median_latency_ms
               p.Scenario.throughput_ops))
        points;
      print_newline ())
    rows;
  Printf.printf "%s\n(cells: median latency @ throughput)\n%!" hr

let print_points ~title points =
  Printf.printf "\n%s\n%s\n" title hr;
  Printf.printf "%-22s %8s %6s %9s %9s %9s %7s %5s %6s\n" "protocol" "clients" "fail"
    "ops/s" "med ms" "mean ms" "fast%" "vc" "agree";
  List.iter
    (fun (p : Scenario.point) ->
      let s = p.Scenario.scenario in
      Printf.printf "%-22s %8d %6d %9.0f %9.1f %9.1f %6.0f%% %5d %6b\n"
        (Scenario.protocol_name s.Scenario.protocol)
        s.Scenario.num_clients s.Scenario.failures p.Scenario.throughput_ops
        p.Scenario.median_latency_ms p.Scenario.mean_latency_ms
        (100.0 *. p.Scenario.fast_fraction)
        p.Scenario.view_changes p.Scenario.agreement)
    points;
  Printf.printf "%s\n%!" hr

let csv_of_points points =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    "protocol,f,workload,clients,failures,topology,ops_per_sec,median_ms,mean_ms,p90_ms,p99_ms,completed,messages,bytes,fast_fraction,view_changes,agreement\n";
  List.iter
    (fun (p : Scenario.point) ->
      let s = p.Scenario.scenario in
      let workload =
        match s.Scenario.workload with
        | Scenario.Kv { batching } -> if batching then "kv-batch" else "kv-nobatch"
        | Scenario.Eth -> "eth"
      in
      let topo = List.assoc s.Scenario.topology Sbft_sim.Topology.kind_names in
      Buffer.add_string b
        (Printf.sprintf "%s,%d,%s,%d,%d,%s,%.1f,%.2f,%.2f,%.2f,%.2f,%d,%d,%d,%.3f,%d,%b\n"
           (Scenario.protocol_name s.Scenario.protocol)
           s.Scenario.f workload s.Scenario.num_clients s.Scenario.failures topo
           p.Scenario.throughput_ops p.Scenario.median_latency_ms
           p.Scenario.mean_latency_ms p.Scenario.p90_latency_ms
           p.Scenario.p99_latency_ms
           p.Scenario.completed_requests p.Scenario.messages p.Scenario.bytes
           p.Scenario.fast_fraction p.Scenario.view_changes p.Scenario.agreement))
    points;
  Buffer.contents b

let write_csv ~path points =
  let oc = open_out path in
  output_string oc (csv_of_points points);
  close_out oc
