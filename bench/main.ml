(* The repository's gate (bench/gate.ml): every hard bound, with one results
   file on stdout.

     dune exec bench/main.exe -- gate > g.json && mv g.json BENCH_gate.json

   The paper's tables and figures are rendered by `clear_sim suite`. *)

let () =
  match Array.to_list Sys.argv |> List.tl with
  | [ "gate" ] -> exit (Gate.run ())
  | args ->
      Printf.eprintf
        "bench/main.exe: unknown arguments '%s'; the only entry point is `gate`. Render paper \
         artefacts with `clear_sim suite [ARTEFACT...]` (see `clear_sim suite --help`).\n"
        (String.concat " " args);
      exit 2
