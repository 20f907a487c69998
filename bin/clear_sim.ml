(* clear_sim: command-line front end for the CLEAR simulator.

   `clear_sim list`                         enumerate benchmarks
   `clear_sim run -w bst -c W ...`          run one benchmark/config
   `clear_sim suite fig8 headline`          paper artefacts from the 4-config sweep
   `clear_sim suite --size smoke all`       every artefact from a seconds-sized sweep
   `clear_sim suite --sched numa2x`         same sweep under a schedule scenario
   `clear_sim sched [--json] [--check]`     scheduler-scenario sweep vs the symmetric baseline
   `clear_sim check -w bst -c W`            validate runs with the execution oracle
   `clear_sim analyze [-w bst] [--json]`    static AR verifier (footprints, fits, envelope)
   `clear_sim lint [--json]`                lint all AR bodies (exit 1 on errors)
   `clear_sim openloop --loads 30,60,120`   open-system sweep: tail latency vs offered load
   `clear_sim config -c B`                  print the machine configuration *)

open Cmdliner

let letter_conv =
  let parse s =
    match String.uppercase_ascii s with
    | "B" | "P" | "C" | "W" -> Ok (String.uppercase_ascii s)
    | _ -> Error (`Msg "expected one of B, P, C, W")
  in
  Arg.conv (parse, Format.pp_print_string)

let workload_conv =
  let parse name =
    match Workloads.Registry.find name with
    | w -> Ok w
    | exception Not_found ->
        Error (`Msg (Printf.sprintf "unknown workload %s; try `clear_sim list`" name))
  in
  let print ppf (w : Machine.Workload.t) = Format.pp_print_string ppf w.name in
  Arg.conv (parse, print)

let workload_arg ?(doc = "Benchmark name (see `clear_sim list`).") default =
  Arg.(value & opt workload_conv default & info [ "w"; "workload" ] ~doc)

let preset_arg =
  let doc = "Configuration: B (requester-wins), P (PowerTM), C (CLEAR/rw), W (CLEAR/PowerTM)." in
  Arg.(value & opt letter_conv "B" & info [ "c"; "config" ] ~doc)

(* Bounded number converters: an out-of-range value is a command-line error
   naming the flag (exit 124), never an exception from inside the simulator
   or a silently accepted nonsense run. *)
let bounded (base : 'a Arg.conv) ~what ok =
  let parse s =
    match Arg.conv_parser base s with
    | Ok v when ok v -> Ok v
    | Ok _ -> Error (`Msg (Printf.sprintf "expected %s, got %s" what s))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer base)

let int_at_least lo = bounded Arg.int ~what:(Printf.sprintf "an integer >= %d" lo) (fun n -> n >= lo)

let cores_conv =
  bounded Arg.int
    ~what:(Printf.sprintf "a core count in [1, %d]" Mem.Directory.max_cores)
    (fun n -> n >= 1 && n <= Mem.Directory.max_cores)

let positive_float =
  bounded Arg.float ~what:"a finite number > 0" (fun x -> Float.is_finite x && x > 0.)

let non_negative_float =
  bounded Arg.float ~what:"a finite number >= 0" (fun x -> Float.is_finite x && x >= 0.)

let cores_arg default =
  Arg.(value & opt cores_conv default & info [ "cores" ] ~doc:"Simulated cores.")

let ops_arg default =
  Arg.(value & opt (int_at_least 1) default & info [ "ops" ] ~doc:"Operations per thread.")

let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Run seed.")

let retries_arg ?(doc = "Retry limit before fallback.") default =
  Arg.(value & opt (int_at_least 0) default & info [ "retries" ] ~doc)

let json_arg = Arg.(value & flag & info [ "json" ] ~doc:"Machine-readable JSON output.")

let check_arg doc = Arg.(value & flag & info [ "check" ] ~doc)

let frontend_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "htm" -> Ok Machine.Config.Htm
    | "sle" -> Ok Machine.Config.Sle
    | _ -> Error (`Msg "expected htm or sle")
  in
  let print ppf f =
    Format.pp_print_string ppf (match f with Machine.Config.Htm -> "htm" | Machine.Config.Sle -> "sle")
  in
  Arg.conv (parse, print)

let trace_arg =
  Arg.(value & opt (int_at_least 0) 0
       & info [ "trace" ] ~doc:"Print the last N lifecycle events of the run (0 = off).")

let trace_out_arg =
  Arg.(value & opt (some string) None
       & info [ "trace-out" ] ~docv:"FILE"
           ~doc:"Write the run's lifecycle events to FILE in Chrome trace_event JSON \
                 (open in chrome://tracing or Perfetto).")

let frontend_arg =
  Arg.(value & opt frontend_conv Machine.Config.Htm
       & info [ "frontend" ] ~doc:"Speculation front-end: htm (transactions) or sle (lock elision).")

let config_of ?(frontend = Machine.Config.Htm) letter ~cores ~ops ~seed ~retries =
  {
    (Clear_repro.Experiments.preset letter) with
    Machine.Config.cores;
    ops_per_thread = ops;
    seed;
    max_retries = retries;
    frontend;
  }

(* The machine `run`, `check` and `config` simulate: a preset with the
   shared knobs. `config` has no --frontend flag. *)
let machine_of frontend =
  let make letter cores ops seed retries frontend =
    config_of ~frontend letter ~cores ~ops ~seed ~retries
  in
  Term.(const make $ preset_arg $ cores_arg 16 $ ops_arg 200 $ seed_arg $ retries_arg 4 $ frontend)

let machine_term = machine_of frontend_arg

let run_cmd =
  let run (w : Machine.Workload.t) (cfg : Machine.Config.t) trace_n trace_out =
    let cores = cfg.cores in
    let trace =
      if trace_out <> None then
        (* A file export wants the whole run, not the default ring. *)
        Some (Machine.Trace.create ~capacity:(1 lsl 20) ())
      else if trace_n > 0 then Some (Machine.Trace.create ())
      else None
    in
    (* Open the export file before simulating, so a bad path fails fast. *)
    let trace_oc =
      Option.map
        (fun file ->
          try open_out_bin file
          with Sys_error msg ->
            Printf.eprintf "clear_sim run: cannot write --trace-out file: %s\n" msg;
            exit 2)
        trace_out
    in
    let t0 = Unix.gettimeofday () in
    let check = Option.map (fun tr -> Machine.Trace.collector tr ~cores) trace in
    let engine = Machine.Engine.create ?check cfg w in
    let stats = Machine.Engine.run engine in
    let elapsed = Unix.gettimeofday () -. t0 in
    let module S = Machine.Stats in
    Printf.printf "workload        %s (%s, %d cores, %d ops/thread, seed %d)\n" w.name
      (Machine.Config.preset_letter cfg) cores cfg.ops_per_thread cfg.seed;
    Printf.printf "total cycles    %d\n" (S.total_cycles stats);
    Printf.printf "commits         %d\n" (S.commits stats);
    List.iter
      (fun mode ->
        Printf.printf "  %-12s  %d\n" (Check.Witness.mode_name mode) (S.commits_in_mode stats mode))
      S.all_commit_modes;
    Printf.printf "aborts          %d (%.2f per commit)\n" (S.aborts stats) (S.aborts_per_commit stats);
    List.iter
      (fun cat ->
        Printf.printf "  %-17s %d\n" (Check.Abort.category_name cat) (S.aborts_in_category stats cat))
      Check.Abort.all_categories;
    List.iter
      (fun cause ->
        let n = S.aborts_with_cause stats cause in
        if n > 0 then Printf.printf "    %-16s %d\n" (Check.Abort.cause_name cause) n)
      Check.Abort.all_causes;
    let one, many, fb = S.retry_breakdown stats in
    Printf.printf "retried commits  1-retry %.1f%%  n-retry %.1f%%  fallback %.1f%%\n" (100. *. one)
      (100. *. many) (100. *. fb);
    Printf.printf "first-try ratio %.1f%%\n" (100. *. S.first_try_ratio stats);
    Printf.printf "fig1 ratio      %.2f\n" (S.fig1_ratio stats);
    Printf.printf "instructions    %d (+%d wasted)\n" (S.instrs stats) (S.wasted_instrs stats);
    Printf.printf "energy          %.3f uJ\n"
      (Energy.Model.total Energy.Model.default ~cores ~cycles:(S.total_cycles stats)
         (S.counters stats)
      /. 1e6);
    let counter name = Simrt.Counter.get (S.counters stats) name in
    Printf.printf "stall cycles    %d  lock-phase cycles %d\n" (counter "stall_cycles")
      (counter "lock_phase_cycles");
    Printf.printf "host time       %.2f s\n" elapsed;
    (match trace with
    | Some tr when trace_n > 0 ->
        let shown = min trace_n (Machine.Trace.retained tr) in
        Printf.printf "--- last %d events (of %d recorded) ---\n" shown (Machine.Trace.recorded tr);
        Machine.Trace.dump ~limit:trace_n tr Format.std_formatter
    | Some _ | None -> ());
    match (trace, trace_oc, trace_out) with
    | Some tr, Some oc, Some file ->
        Machine.Trace.output_chrome_json tr oc;
        close_out oc;
        let kept = Machine.Trace.retained tr and recorded = Machine.Trace.recorded tr in
        if kept = recorded then Printf.printf "trace written   %s (%d events)\n" file kept
        else
          Printf.printf "trace written   %s (kept the newest %d of %d events)\n" file kept recorded
    | _ -> ()
  in
  let term =
    Term.(
      const run $ workload_arg Workloads.Arrayswap.workload $ machine_term
      $ trace_arg $ trace_out_arg)
  in
  Cmd.v (Cmd.info "run" ~doc:"Run one benchmark under one configuration.") term

let jobs_arg context =
  let doc =
    "Worker domains for the sweep (default: host cores minus one). Results are \
     bit-identical at any job count. Values above the host's recommended \
     domain count are clamped (extra domains only add scheduling overhead)."
  in
  let arg =
    Arg.(value & opt (int_at_least 1) (Simrt.Pool.default_jobs ()) & info [ "j"; "jobs" ] ~doc)
  in
  Cmdliner.Term.(const (Simrt.Pool.clamp_jobs ~context) $ arg)

let sched_profile_conv =
  let parse s =
    match Sched.Scenarios.find (String.lowercase_ascii s) with
    | Some p -> Ok p
    | None ->
        Error
          (`Msg
             (Printf.sprintf "unknown scenario %s (expected one of %s)" s
                (String.concat ", " Sched.Scenarios.names)))
  in
  let print ppf (p : Sched.Profile.t) = Format.pp_print_string ppf p.Sched.Profile.name in
  Arg.conv (parse, print)

let sched_arg =
  let doc =
    Printf.sprintf
      "Schedule scenario applied to every simulation: %s. The default (symmetric) is the \
       paper's machine."
      (String.concat ", " Sched.Scenarios.names)
  in
  Arg.(value & opt sched_profile_conv Sched.Profile.symmetric & info [ "sched" ] ~doc)

(* The artefacts `clear_sim suite` renders, by command-line name. *)
let artefacts =
  [
    ("table1", `Table1);
    ("table2", `Table2);
    ("fig1", `Fig1);
    ("fig8", `Fig8);
    ("fig9", `Fig9);
    ("fig10", `Fig10);
    ("fig11", `Fig11);
    ("fig12", `Fig12);
    ("fig13", `Fig13);
    ("headline", `Headline);
    ("ablation", `Ablation);
    ("sle", `Sle);
    ("storage", `Storage);
  ]

let suite_cmd =
  let module E = Clear_repro.Experiments in
  let module Suite_cache = Clear_repro.Suite_cache in
  let suite wanted size workloads csv jobs check no_cache cache_clear sched =
    (* Create the --csv directory before anything runs, so a bad path fails fast. *)
    Option.iter
      (fun dir ->
        try Unix.mkdir dir 0o755 with
        | Unix.Unix_error (Unix.EEXIST, _, _) -> ()
        | Unix.Unix_error (e, _, _) ->
            Printf.eprintf "clear_sim suite: --csv: cannot create directory %s: %s\n" dir
              (Unix.error_message e);
            exit 2)
      csv;
    if cache_clear then begin
      let n = Suite_cache.clear () in
      Printf.eprintf "[suite] cleared %d cache shard(s) from %s\n%!" n Suite_cache.dir
    end;
    let opts = { size with E.sched } in
    let cache = not no_cache in
    if not (Sched.Profile.is_symmetric sched) then
      Printf.eprintf "[suite] schedule scenario: %s (%s)\n%!" sched.Sched.Profile.name
        sched.Sched.Profile.description;
    let progress label = Printf.eprintf "[suite] %s\n%!" label in
    (* The sweep runs at most once, and only for an artefact derived from it. *)
    let sweep =
      lazy
        (progress
           (Printf.sprintf
              "running full suite (4 configs x %d benchmarks x retry sweep) on %d domain(s)%s..."
              (List.length (Option.value workloads ~default:Workloads.Registry.all))
              jobs
              (if check then " with the execution oracle" else ""));
         let t0 = Unix.gettimeofday () in
         let s = E.run_suite ~jobs ~check ~cache ?workloads ~progress opts in
         progress (Printf.sprintf "suite done in %.1f s" (Unix.gettimeofday () -. t0));
         s)
    in
    let s () = Lazy.force sweep in
    let tables = function
      | `Table1 -> [ ("table1", E.table1 ()) ]
      | `Table2 -> [ ("table2", E.table2 opts) ]
      | `Fig1 -> [ ("fig1", E.fig1 (s ())) ]
      | `Fig8 -> [ ("fig8", E.fig8 (s ())); ("fig8_discovery", E.fig8_discovery (s ())) ]
      | `Fig9 -> [ ("fig9", E.fig9 (s ())) ]
      | `Fig10 -> [ ("fig10", E.fig10 (s ())) ]
      | `Fig11 -> [ ("fig11", E.fig11 (s ())) ]
      | `Fig12 -> [ ("fig12", E.fig12 (s ())) ]
      | `Fig13 -> [ ("fig13", E.fig13 (s ())) ]
      | `Headline -> [ ("headline", E.headline (s ())) ]
      | `Ablation -> [ ("ablation", E.ablation ~jobs ~check ~cache ~progress opts) ]
      | `Sle -> [ ("sle", E.sle ~jobs ~check ~cache ~progress opts) ]
      | `Storage -> [ ("storage", E.storage ()) ]
    in
    let emit (name, t) =
      Report.Table.print t;
      Option.iter
        (fun dir ->
          let path = Filename.concat dir (name ^ ".csv") in
          Report.Csv.save ~path t;
          Printf.eprintf "[suite] wrote %s\n%!" path)
        csv
    in
    (* "all" anywhere renders every artefact once, in the canonical order. *)
    let wanted =
      if List.mem None wanted then List.map snd artefacts else List.filter_map Fun.id wanted
    in
    try
      List.iter
        (fun a ->
          List.iter emit (tables a);
          print_newline ())
        wanted
    with Clear_repro.Run.Check_failed msg ->
      Printf.eprintf "[suite] oracle violation:\n%s\n%!" msg;
      exit 1
  in
  let artefact_arg =
    let names = ("all", None) :: List.map (fun (n, a) -> (n, Some a)) artefacts in
    Arg.(value & pos_all (enum names) [ Some `Fig8; Some `Headline ]
         & info [] ~docv:"ARTEFACT"
             ~doc:
               (Printf.sprintf "Artefacts to render, in order: %s, or all. Default: fig8 headline."
                  (String.concat ", " (List.map fst artefacts))))
  in
  let size_arg =
    let sizes =
      [ ("smoke", E.smoke_options); ("quick", E.quick_options); ("paper", E.default_options) ]
    in
    Arg.(value & opt (enum sizes) E.quick_options
         & info [ "size" ]
             ~doc:"Sweep size: smoke (seconds), quick (minutes) or paper (10 seeds, retries \
                   1..10; slow).")
  in
  let workloads_arg =
    Arg.(value & opt (some (list workload_conv)) None
         & info [ "w"; "workload" ] ~docv:"W1,W2"
             ~doc:"Restrict the sweep to the named benchmarks; derived figures only contain \
                   their rows.")
  in
  let csv_arg =
    Arg.(value & opt (some string) None
         & info [ "csv" ] ~docv:"DIR" ~doc:"Also write each table to $(docv)/NAME.csv.")
  in
  let check_arg =
    check_arg
      "Validate every simulation with the execution oracle (serializability, sequential \
       replay, lock safety, static soundness gate). Implies bypassing the suite cache."
  in
  let no_cache_arg =
    Arg.(value & flag
         & info [ "no-cache" ] ~doc:"Neither read nor write the on-disk per-simulation shards.")
  in
  let cache_clear_arg =
    Arg.(value & flag & info [ "cache-clear" ] ~doc:"Delete all cache shards first.")
  in
  Cmd.v
    (Cmd.info "suite"
       ~doc:"Render the paper's tables and figures (and the ablation, SLE and storage tables) \
             from one 4-configuration sweep on a pool of domains, memoised on disk per \
             simulation.")
    Term.(const suite $ artefact_arg $ size_arg $ workloads_arg $ csv_arg $ jobs_arg "suite"
          $ check_arg $ no_cache_arg $ cache_clear_arg $ sched_arg)

(* ------------------------------------------------------------------ *)
(* sched: scenario sweep against the symmetric baseline                *)

let sched_cmd =
  let module S = Machine.Stats in
  let module Sweep = Clear_repro.Sched_sweep in
  let d = Sweep.default_options in
  let run json check fingerprint jobs workload cores ops retries =
    let r =
      match Sweep.run ~jobs ~check { Sweep.workload; cores; ops; retries } with
      | r -> r
      | exception Clear_repro.Run.Check_failed msg ->
          Printf.eprintf "[sched] oracle violation:\n%s\n%!" msg;
          exit 1
    in
    if fingerprint then
      (* OCaml-syntax golden rows for test/test_sched.ml regeneration. *)
      List.iter
        (fun ((sname, letter, seed), st) ->
          Printf.printf "    (%S, %S, %d, (%d, %d, %d, %d, %d));\n" sname letter seed
            (S.total_cycles st) (S.commits st) (S.aborts st) (S.instrs st) (S.wasted_instrs st))
        r.Sweep.runs
    else if json then print_endline (Report.Json.to_string_pretty (Sweep.to_json r))
    else begin
      Report.Table.print (Sweep.table r);
      print_endline (Sweep.summary r)
    end
  in
  let fingerprint_arg =
    Arg.(value & flag
         & info [ "fingerprint" ]
             ~doc:"Print OCaml-syntax golden rows (scenario, config, seed, counters) for the \
                   test tables instead of the report.")
  in
  Cmd.v
    (Cmd.info "sched"
       ~doc:"Run every schedule scenario (hot core, think skew, NUMA asymmetry, phased start) \
             against the symmetric baseline across all four configurations and report how the \
             retry/fallback mix shifts. Deterministic per (workload, cores, ops, seed).")
    Term.(const run $ json_arg
          $ check_arg "Validate every scenario run with the execution oracle."
          $ fingerprint_arg $ jobs_arg "sched"
          $ workload_arg ~doc:"Benchmark driving the scenario sweep (see `clear_sim list`)."
              d.Sweep.workload
          $ cores_arg d.Sweep.cores $ ops_arg d.Sweep.ops $ retries_arg d.Sweep.retries)

let check_cmd =
  let check workload all (cfg : Machine.Config.t) fault_blind_line =
    let ws = if all then Workloads.Registry.all else [ workload ] in
    let cfg = { cfg with fault_blind_line } in
    let letter = Machine.Config.preset_letter cfg and seed = cfg.seed in
    let failures = ref 0 in
    List.iter
      (fun (w : Machine.Workload.t) ->
        let _stats, verdict =
          Clear_repro.Run.run_sim_checked { Clear_repro.Run.cfg; workload = w; seed }
        in
        if Check.Verdict.ok verdict then
          Printf.printf "%-12s %s  OK (%d commits)\n%!" w.name letter
            verdict.Check.Verdict.commits
        else begin
          incr failures;
          Printf.printf "%-12s %s  FAILED\n%s\n%!" w.name letter (Check.Verdict.to_string verdict)
        end)
      ws;
    if !failures > 0 then exit 1
  in
  let all_arg =
    Arg.(value & flag & info [ "all" ] ~doc:"Check every benchmark instead of one.")
  in
  let fault_blind_arg =
    Arg.(value & opt (some (int_at_least 0)) None
         & info [ "fault-blind-line" ] ~docv:"LINE"
             ~doc:"Inject the conflict-blindness engine bug on $(docv) (the engine stops \
                   detecting conflicts there). The oracles must catch it: a demonstration \
                   that the checker fails loudly.")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Run benchmarks with the execution oracle: commit-order serializability over the \
             captured witnesses, bit-exact sequential replay of all committed ARs, and \
             lock-safety invariants. Exits non-zero on any violation.")
    Term.(const check $ workload_arg Workloads.Arrayswap.workload $ all_arg
          $ machine_term $ fault_blind_arg)

let list_cmd =
  let list () =
    List.iter
      (fun (w : Machine.Workload.t) ->
        Printf.printf "%-12s %2d ARs  %s\n" w.name (List.length w.ars) w.description)
      Workloads.Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List benchmarks.") Term.(const list $ const ())

(* --conflicts: the static pairwise AR may-conflict matrix, validated
   dynamically — each workload is re-run under checked mode (B and W, so
   both the plain-HTM and CLEAR gates see traffic) and the soundness gate
   asserts every observed conflict event's line lies inside the static
   cover for its AR pair. Exit 1 on any gate failure. *)
let analyze_conflicts models json =
  let module C = Staticcheck.Conflict in
  let name (i : C.ar_info) = i.C.ar.Isa.Program.name in
  let module J = Report.Json in
  let failures = ref 0 in
  let validate (w : Machine.Workload.t) =
    List.map
      (fun letter ->
        let cfg = config_of letter ~cores:8 ~ops:40 ~seed:11 ~retries:4 in
        let _stats, verdict =
          Clear_repro.Run.run_sim_checked { Clear_repro.Run.cfg; workload = w; seed = 11 }
        in
        if not (Check.Verdict.ok verdict) then begin
          incr failures;
          Printf.eprintf "[analyze --conflicts] %s under %s FAILED\n%s\n%!" w.name letter
            (Check.Verdict.to_string verdict)
        end;
        (letter, verdict))
      [ "B"; "W" ]
  in
  let per_workload = List.map (fun (w, m) -> (w, m, validate w)) models in
  let cover_json c =
    match (c : C.cover) with
    | C.Top -> J.Str "top"
    | C.Spans spans ->
        J.List (Array.to_list (Array.map (fun (lo, hi) -> J.List [ J.Int lo; J.Int hi ]) spans))
  in
  if json then
    print_endline
      (J.to_string_pretty
         (J.List
            (List.map
               (fun ((w : Machine.Workload.t), m, verdicts) ->
                 let infos = C.ars m in
                 J.Obj
                   [
                     ("workload", J.Str w.name);
                     ( "ars",
                       J.List
                         (Array.to_list
                            (Array.map
                               (fun (i : C.ar_info) ->
                                 J.Obj
                                   [
                                     ("name", J.Str (name i));
                                     ("cl_capable", J.Bool i.C.cl_capable);
                                     ("rw", cover_json i.C.rw);
                                     ("w", cover_json i.C.w);
                                     ("x", cover_json i.C.x);
                                   ])
                               infos)) );
                     ( "matrix",
                       J.List
                         (List.concat
                            (Array.to_list
                               (Array.mapi
                                  (fun ia (a : C.ar_info) ->
                                    Array.to_list
                                      (Array.mapi
                                         (fun ib (b : C.ar_info) ->
                                           let c = C.may_conflict m ia ib in
                                           J.Obj
                                             [
                                               ("a", J.Str (name a));
                                               ("b", J.Str (name b));
                                               ("cover", cover_json c);
                                               ( "lines",
                                                 match C.cover_lines c with
                                                 | None -> J.Null
                                                 | Some n -> J.Int n );
                                             ])
                                         infos))
                                  infos))) );
                     ( "validated",
                       J.List
                         (List.map
                            (fun (letter, (v : Check.Verdict.t)) ->
                              J.Obj
                                [
                                  ("config", J.Str letter);
                                  ("ok", J.Bool (Check.Verdict.ok v));
                                  ("commits", J.Int v.Check.Verdict.commits);
                                ])
                            verdicts) );
                   ])
               per_workload)))
  else
    List.iter
      (fun ((w : Machine.Workload.t), m, verdicts) ->
        let infos = C.ars m in
        let t =
          Report.Table.create ~title:(Printf.sprintf "%s: AR may-conflict matrix" w.name)
            ~columns:
              ("AR" :: "CL?" :: "X-set"
              :: Array.to_list (Array.map name infos))
        in
        Array.iteri
          (fun ia (a : C.ar_info) ->
            Report.Table.add_row t
              (name a
              :: (if a.C.cl_capable then "yes" else "no")
              :: C.cover_to_string a.C.x
              :: Array.to_list
                   (Array.mapi
                      (fun ib _ ->
                        let c = C.may_conflict m ia ib in
                        match C.cover_lines c with
                        | None -> "top"
                        | Some 0 -> "-"
                        | Some n -> string_of_int n)
                      infos)))
          infos;
        Report.Table.print t;
        List.iter
          (fun (letter, (v : Check.Verdict.t)) ->
            Printf.printf "  dynamic gate %s: %s (%d commits)\n" letter
              (if Check.Verdict.ok v then "OK" else "FAILED")
              v.Check.Verdict.commits)
          verdicts;
        print_newline ())
      per_workload;
  if !failures > 0 then begin
    Printf.eprintf "[analyze --conflicts] %d gate failure(s)\n%!" !failures;
    exit 1
  end

let analyze_cmd =
  let module A = Staticcheck.Absint in
  let module C = Staticcheck.Conflict in
  let module P = Staticcheck.Predict in
  let json_of_prediction (p : P.t) =
    let module J = Report.Json in
    let bound b = J.Str (A.bound_to_string b) in
    let fit f = J.Str (P.fit_name f) in
    J.Obj
      [
        ("ar", J.Str p.P.summary.A.name);
        ("may_read_lines", bound p.P.summary.A.read_lines);
        ("may_write_lines", bound p.P.summary.A.write_lines);
        ("footprint_lines", bound p.P.summary.A.footprint_lines);
        ("store_execs", bound p.P.summary.A.store_execs);
        ("alt_fit", fit p.P.alt_fit);
        ("sq_fit", fit p.P.sq_fit);
        ("crt_fit", fit p.P.crt_fit);
        ("lock_fit", fit p.P.lock_fit);
        ("window_fit", fit p.P.window_fit);
        ( "lock_groups",
          match p.P.lock_groups with None -> J.Null | Some n -> J.Int n );
        ("envelope", J.Str (P.envelope_name p.P.envelope));
        ("classification", J.Str (Clear.Analysis.classification_name p.P.classification));
        ("indirections", J.List (List.map (fun r -> J.Str r) p.P.summary.A.indirections));
        ("must_indirect", J.Bool p.P.summary.A.must_indirect);
      ]
  in
  let analyze workload json conflicts =
    let ws = match workload with None -> Workloads.Registry.all | Some w -> [ w ] in
    let params = Clear_repro.Run.predict_params Machine.Config.default in
    let models = List.map (fun (w : Machine.Workload.t) -> (w, C.of_ars ~params w.ars)) ws in
    if conflicts then analyze_conflicts models json
    else
    let predictions m =
      Array.to_list (Array.map (fun (i : C.ar_info) -> i.C.prediction) (C.ars m))
    in
    let per_workload = List.map (fun (w, m) -> (w, predictions m)) models in
    if json then
      print_endline
        (Report.Json.to_string_pretty
           (Report.Json.List
              (List.map
                 (fun ((w : Machine.Workload.t), ps) ->
                   Report.Json.Obj
                     [
                       ("workload", Report.Json.Str w.name);
                       ("ars", Report.Json.List (List.map json_of_prediction ps));
                     ])
                 per_workload)))
    else
      List.iter
        (fun ((w : Machine.Workload.t), ps) ->
          let t =
            Report.Table.create ~title:(Printf.sprintf "%s: static AR analysis" w.name)
              ~columns:
                [ "AR"; "reads"; "writes"; "lines"; "stores"; "ALT"; "SQ"; "CRT"; "lock";
                  "window"; "envelope"; "class" ]
          in
          List.iter
            (fun (p : P.t) ->
              let fit f = match f with P.Fits -> "fit" | P.May_overflow -> "may-ovf" in
              Report.Table.add_row t
                [
                  p.P.summary.A.name;
                  A.bound_to_string p.P.summary.A.read_lines;
                  A.bound_to_string p.P.summary.A.write_lines;
                  A.bound_to_string p.P.summary.A.footprint_lines;
                  A.bound_to_string p.P.summary.A.store_execs;
                  fit p.P.alt_fit;
                  fit p.P.sq_fit;
                  fit p.P.crt_fit;
                  fit p.P.lock_fit;
                  fit p.P.window_fit;
                  P.envelope_name p.P.envelope;
                  Clear.Analysis.classification_name p.P.classification;
                ])
            ps;
          Report.Table.print t;
          print_newline ())
        per_workload
  in
  let workload_filter =
    Arg.(value & opt (some workload_conv) None
         & info [ "w"; "workload" ] ~doc:"Restrict the analysis to one benchmark.")
  in
  let conflicts_arg =
    Arg.(value & flag
         & info [ "conflicts" ]
             ~doc:"Print the static pairwise AR may-conflict matrix instead, and validate it \
                   dynamically: checked runs (configs B and W) assert every observed conflict \
                   event's line lies in the static cover for its AR pair. Exits non-zero on \
                   any soundness mismatch.")
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Static AR verification: abstract-interpretation footprint bounds, CLEAR table \
             fits, the sound decision envelope, and the Table-1 mutability classification. With \
             $(b,--conflicts), the pairwise AR may-conflict matrix with dynamic validation.")
    Term.(const analyze $ workload_filter $ json_arg $ conflicts_arg)

let lint_cmd =
  let module L = Staticcheck.Lint in
  let lint json broken_demo =
    let diags =
      if broken_demo then L.check_body ~name:"broken-demo" L.broken_demo
      else
        List.concat_map
          (fun (w : Machine.Workload.t) ->
            List.concat_map
              (fun ar ->
                List.map
                  (fun (d : L.diag) -> { d with L.ar = w.name ^ "/" ^ d.L.ar })
                  (L.check_ar ar))
              w.ars)
          Workloads.Registry.all
    in
    if json then print_endline (Report.Json.to_string_pretty (L.to_json diags))
    else begin
      List.iter (fun d -> Format.printf "%a@." L.pp_diag d) diags;
      Printf.printf "%d finding(s), %d error(s)\n" (List.length diags) (L.errors diags)
    end;
    if L.errors diags > 0 then exit 1
  in
  let demo_arg =
    Arg.(value & flag
         & info [ "broken-demo" ]
             ~doc:"Lint a deliberately broken demo body instead of the registry (exits 1).")
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:"Lint every registered AR body (unreachable code, dead writes, untagged regions, \
             out-of-range targets, absurd offsets, possibly-zero divisors, missing Halt). \
             Exits non-zero only on error-severity findings.")
    Term.(const lint $ json_arg $ demo_arg)

(* ------------------------------------------------------------------ *)
(* openloop: open-system sweep — tail latency vs offered load          *)

let openloop_cmd =
  let module Sweep = Openloop.Sweep in
  let d = Sweep.default_options in
  let run json jobs (w : Machine.Workload.t) keys theta loads requests process heat cap configs
      retries cores seed check =
    let process =
      match process with
      | `Poisson -> Machine.Config.Open_poisson
      | `Burst -> Machine.Config.Open_burst { heat }
    in
    let configs =
      (* ops_per_thread is dead in open mode (the queue, not an op count,
         decides when cores stop); keep the preset default. *)
      List.map
        (fun letter ->
          config_of letter ~cores ~ops:Machine.Config.default.Machine.Config.ops_per_thread ~seed
            ~retries)
        configs
    in
    let o =
      {
        Sweep.workload = w.name;
        keys;
        theta;
        loads;
        requests;
        process;
        queue_cap = cap;
        configs;
        seed;
        jobs;
        check;
      }
    in
    let results = Sweep.run o in
    if json then print_endline (Report.Json.to_string_pretty (Sweep.to_json o results))
    else Report.Table.print (Sweep.table results);
    if List.exists (fun (r : Openloop.Driver.t) -> r.Openloop.Driver.checked && not r.oracle_ok) results
    then begin
      Printf.eprintf "[openloop] execution-oracle violation at a checked load point\n%!";
      exit 1
    end
  in
  let keys_arg =
    Arg.(value & opt (int_at_least 1) d.Sweep.keys
         & info [ "keys" ]
             ~doc:"Keyed-structure entries (sized well past the L3 so Zipf popularity, not \
                   cache residency, decides hotness).")
  in
  let theta_arg =
    Arg.(value & opt non_negative_float d.Sweep.theta
         & info [ "theta" ] ~doc:"Zipf popularity skew (0 = uniform).")
  in
  let loads_arg =
    Arg.(value & opt (list positive_float) d.Sweep.loads
         & info [ "loads" ] ~docv:"R1,R2,..."
             ~doc:"Offered loads to sweep, in requests per 1000 simulated cycles.")
  in
  let requests_arg =
    Arg.(value & opt (int_at_least 1) d.Sweep.requests
         & info [ "requests" ] ~doc:"Requests generated per load point.")
  in
  let process_arg =
    Arg.(value & opt (enum [ ("poisson", `Poisson); ("burst", `Burst) ]) `Poisson
         & info [ "process" ] ~doc:"Arrival process: poisson or burst.")
  in
  let heat_arg =
    Arg.(value & opt non_negative_float 1.5
         & info [ "heat" ] ~doc:"Burstiness of the burst arrival process (ignored for poisson).")
  in
  let cap_arg =
    Arg.(value & opt (int_at_least 0) d.Sweep.queue_cap
         & info [ "cap" ]
             ~doc:"Waiting-request bound; arrivals beyond it are dropped at saturation \
                   (0 = unbounded).")
  in
  let configs_arg =
    Arg.(value & opt (list letter_conv) [ "B"; "C" ]
         & info [ "configs" ] ~docv:"L1,L2,..."
             ~doc:"Configurations to sweep (letters among B, P, C, W).")
  in
  Cmd.v
    (Cmd.info "openloop"
       ~doc:"Open-system sweep: requests arrive on their own schedule (Poisson or bursty), \
             queue while cores are busy, and record enqueue-to-commit sojourn latency. Emits \
             the latency-vs-offered-load curve with exact p50/p99/p999 percentiles. \
             Deterministic per seed at any --jobs.")
    Term.(const run $ json_arg $ jobs_arg "openloop" $ workload_arg Workloads.Arrayswap.workload
          $ keys_arg $ theta_arg $ loads_arg $ requests_arg $ process_arg $ heat_arg $ cap_arg
          $ configs_arg
          $ retries_arg
              ~doc:"Retry limit before fallback. The default 1 makes the baseline \
                    fallback-heavy — the convoy CLEAR's single-retry bound avoids."
              1
          $ cores_arg Machine.Config.default.Machine.Config.cores $ seed_arg
          $ check_arg
              "Validate each configuration's lowest load point with the execution oracle \
               (exit 1 on violation).")

let config_cmd =
  let show cfg = Format.printf "%a@." Machine.Config.pp cfg in
  Cmd.v (Cmd.info "config" ~doc:"Print the machine configuration (Table 2).")
    Term.(const show $ machine_of (const Machine.Config.Htm))

let () =
  let info = Cmd.info "clear_sim" ~doc:"CLEAR bounded-retry HTM simulator." in
  exit
    (Cmd.eval
       (Cmd.group info
          [ run_cmd; suite_cmd; sched_cmd; check_cmd; list_cmd; analyze_cmd; lint_cmd;
            openloop_cmd; config_cmd ]))
