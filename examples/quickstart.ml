(* Quickstart: simulate one benchmark under the four HTM configurations of
   the paper and compare them.

     dune exec examples/quickstart.exe

   B = requester-wins, P = PowerTM, C = CLEAR over requester-wins,
   W = CLEAR over PowerTM. *)

module Config = Machine.Config
module Engine = Machine.Engine
module Stats = Machine.Stats

let () =
  let workload = Workloads.Registry.find "bitcoin" in
  let configs =
    [
      ("B", Config.baseline);
      ("P", Config.power_tm);
      ("C", Config.clear_rw);
      ("W", Config.clear_power);
    ]
  in
  Printf.printf "benchmark: %s — %s\n\n" workload.Machine.Workload.name
    workload.Machine.Workload.description;
  Printf.printf "%-4s %12s %10s %14s %10s %10s %10s\n" "cfg" "cycles" "commits" "aborts/commit"
    "1-retry" "S-CL" "fallback";
  List.iter
    (fun (letter, preset) ->
      let cfg = { preset with Config.cores = 16; ops_per_thread = 300 } in
      let stats = Engine.run_workload cfg workload in
      let one, _, _ = Stats.retry_breakdown stats in
      let share mode =
        100.0 *. float_of_int (Stats.commits_in_mode stats mode) /. float_of_int (Stats.commits stats)
      in
      Printf.printf "%-4s %12d %10d %14.2f %9.1f%% %9.1f%% %9.1f%%\n" letter
        (Stats.total_cycles stats) (Stats.commits stats) (Stats.aborts_per_commit stats)
        (100.0 *. one) (share Stats.Scl) (share Stats.Fallback))
    configs;
  print_newline ();
  print_endline
    "CLEAR (C/W) converts bitcoin's likely-immutable transfer region to S-CL on the first\n\
     abort, so most retried transactions commit after exactly one retry."
