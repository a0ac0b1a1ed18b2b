(* Emits the static message-flow graph for the two protocol sections
   (lib/core against Types.msg, lib/pbft against Pbft_types.msg) on
   stdout.  Wired into the build as [dune build @msgflow], which diffs
   the output against analysis/msgflow.expected. *)

module Lint = Sbft_analysis.Lint
module Msgflow = Sbft_analysis.Msgflow

let parse path = Lint.parse ~path (Lint.read_file path)

let section (name, types_file) =
  let universe =
    match parse types_file with
    | Ok structure ->
        Msgflow.variant_constructors ~type_name:"msg" structure
        |> List.sort_uniq String.compare
    | Error _ -> []
  in
  let files =
    List.filter_map
      (fun path ->
        match parse path with
        | Ok structure -> Some (Msgflow.summarize ~path structure)
        | Error _ -> None)
      (Lint.ml_files [ name ])
  in
  { Msgflow.sec_name = name; sec_universe = universe; sec_files = files }

let () =
  let root = ref "." in
  (match Array.to_list Sys.argv with
  | _ :: "--root" :: dir :: _ -> root := dir
  | _ -> ());
  Sys.chdir !root;
  let sections =
    [
      ("lib/core", "lib/core/types.ml");
      ("lib/pbft", "lib/pbft/pbft_types.ml");
    ]
  in
  print_string (Msgflow.render (List.map section sections))
