(* clear_sim: command-line front end for the CLEAR simulator.

   `clear_sim list`                         enumerate benchmarks
   `clear_sim run -w bst -c W ...`          run one benchmark/config
   `clear_sim suite --jobs 8`               full 4-config sweep on 8 domains
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

let workload_arg =
  let doc = "Benchmark name (see `clear_sim list`)." in
  Arg.(value & opt string "arrayswap" & info [ "w"; "workload" ] ~doc)

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

let cores_arg = Arg.(value & opt cores_conv 16 & info [ "cores" ] ~doc:"Simulated cores.")

let ops_arg = Arg.(value & opt (int_at_least 1) 200 & info [ "ops" ] ~doc:"Operations per thread.")

let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Run seed.")

let retries_arg =
  Arg.(value & opt (int_at_least 0) 4 & info [ "retries" ] ~doc:"Retry limit before fallback.")

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
  Arg.(value & opt int 0
       & info [ "trace" ] ~doc:"Print the last N lifecycle events of the run (0 = off).")

let trace_out_arg =
  Arg.(value & opt (some string) None
       & info [ "trace-out" ] ~docv:"FILE"
           ~doc:"Write the run's lifecycle events to FILE in Chrome trace_event JSON \
                 (open in chrome://tracing or Perfetto).")

let frontend_arg =
  Arg.(value & opt frontend_conv Machine.Config.Htm
       & info [ "frontend" ] ~doc:"Speculation front-end: htm (transactions) or sle (lock elision).")

let find_workload name =
  match Workloads.Registry.find name with
  | w -> w
  | exception Not_found ->
      Printf.eprintf "unknown workload %s; try `clear_sim list`\n" name;
      exit 2

let config_of ?(frontend = Machine.Config.Htm) letter ~cores ~ops ~seed ~retries =
  let base =
    match letter with
    | "B" -> Machine.Config.baseline
    | "P" -> Machine.Config.power_tm
    | "C" -> Machine.Config.clear_rw
    | "W" -> Machine.Config.clear_power
    | _ -> assert false
  in
  { base with Machine.Config.cores; ops_per_thread = ops; seed; max_retries = retries; frontend }

let run_cmd =
  let run workload letter cores ops seed retries frontend trace_n trace_out =
    let w = find_workload workload in
    let cfg = config_of ~frontend letter ~cores ~ops ~seed ~retries in
    let trace =
      if trace_out <> None then
        (* A file export wants the whole run, not the default ring. *)
        Some (Machine.Trace.create ~capacity:(1 lsl 20) ())
      else if trace_n > 0 then Some (Machine.Trace.create ())
      else None
    in
    let t0 = Unix.gettimeofday () in
    let engine = Machine.Engine.create ?trace cfg w in
    let stats = Machine.Engine.run engine in
    let elapsed = Unix.gettimeofday () -. t0 in
    let module S = Machine.Stats in
    Printf.printf "workload        %s (%s, %d cores, %d ops/thread, seed %d)\n" w.name letter cores
      ops seed;
    Printf.printf "total cycles    %d\n" (S.total_cycles stats);
    Printf.printf "commits         %d\n" (S.commits stats);
    List.iter
      (fun mode ->
        Printf.printf "  %-12s  %d\n" (S.commit_mode_name mode) (S.commits_in_mode stats mode))
      S.all_commit_modes;
    Printf.printf "aborts          %d (%.2f per commit)\n" (S.aborts stats) (S.aborts_per_commit stats);
    List.iter
      (fun cat ->
        Printf.printf "  %-17s %d\n" (Machine.Abort.category_name cat) (S.aborts_in_category stats cat))
      Machine.Abort.all_categories;
    List.iter
      (fun cause ->
        let n = S.aborts_with_cause stats cause in
        if n > 0 then Printf.printf "    %-16s %d\n" (Machine.Abort.cause_name cause) n)
      [
        Machine.Abort.Memory_conflict;
        Machine.Abort.Nacked;
        Machine.Abort.Explicit_fallback;
        Machine.Abort.Other_fallback;
        Machine.Abort.Capacity;
        Machine.Abort.Scl_deviation;
        Machine.Abort.Other;
      ];
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
    match (trace, trace_out) with
    | Some tr, Some file ->
        Out_channel.with_open_bin file (fun oc ->
            Out_channel.output_string oc (Machine.Trace.to_chrome_json tr));
        Printf.printf "trace written   %s (%d events)\n" file (Machine.Trace.retained tr)
    | _ -> ()
  in
  let term =
    Term.(
      const run $ workload_arg $ preset_arg $ cores_arg $ ops_arg $ seed_arg $ retries_arg
      $ frontend_arg $ trace_arg $ trace_out_arg)
  in
  Cmd.v (Cmd.info "run" ~doc:"Run one benchmark under one configuration.") term

let jobs_arg =
  let doc =
    "Worker domains for the sweep (default: host cores minus one). Results are \
     bit-identical at any job count. Values above the host's recommended \
     domain count are clamped (extra domains only add scheduling overhead)."
  in
  let arg = Arg.(value & opt int (Simrt.Pool.default_jobs ()) & info [ "j"; "jobs" ] ~doc) in
  Cmdliner.Term.(const (Simrt.Pool.clamp_jobs ~context:"suite") $ arg)

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

let suite_cmd =
  let module Experiments = Clear_repro.Experiments in
  let module Suite_cache = Clear_repro.Suite_cache in
  let suite jobs paper workload check stream no_cache cache_clear sched =
    if cache_clear then begin
      let n = Suite_cache.clear () in
      Printf.eprintf "[suite] cleared %d cache shard(s) from %s\n%!" n Suite_cache.dir
    end;
    let opts = if paper then Experiments.default_options else Experiments.quick_options in
    let opts = { opts with Experiments.sched } in
    if not (Sched.Profile.is_symmetric sched) then
      Printf.eprintf "[suite] schedule scenario: %s (%s)\n%!" sched.Sched.Profile.name
        sched.Sched.Profile.description;
    let workloads =
      match workload with
      | None -> Workloads.Registry.all
      | Some name -> [ find_workload name ]
    in
    let progress label = Printf.eprintf "[suite] %s\n%!" label in
    (* A checked sweep must actually simulate — a cache hit would skip the
       oracle entirely — so --check bypasses the cache in both directions. *)
    let use_cache = (not no_cache) && not check in
    let t0 = Unix.gettimeofday () in
    let s =
      Experiments.run_suite ~jobs ~check ~stream ~cache:use_cache ~workloads ~progress opts
    in
    Printf.eprintf "[suite] done in %.1f s on %d domain(s)%s\n%!"
      (Unix.gettimeofday () -. t0) jobs
      (if check then " (all runs validated by the execution oracle)" else "");
    Report.Table.print (Experiments.fig8 s);
    print_newline ();
    Report.Table.print (Experiments.headline s)
  in
  let paper_arg =
    Arg.(value & flag & info [ "paper" ] ~doc:"Paper-sized sweep (10 seeds, retries 1..10); slow.")
  in
  let workload_filter =
    Arg.(value & opt (some string) None
         & info [ "w"; "workload" ] ~doc:"Restrict the sweep to one benchmark.")
  in
  let check_arg =
    Arg.(value & flag
         & info [ "check" ]
             ~doc:"Validate every simulation with the execution oracle (serializability, \
                   sequential replay, lock safety, static soundness gate). Implies bypassing \
                   the suite cache.")
  in
  let stream_arg =
    Arg.(value & flag
         & info [ "stream" ]
             ~doc:"Run the --check oracles online (incremental checker with bounded memory, \
                   DESIGN.md §14); identical verdicts, no retained history.")
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
       ~doc:"Run the 4-configuration sweep on a pool of domains; print Figure 8 and the headline.")
    Term.(const suite $ jobs_arg $ paper_arg $ workload_filter $ check_arg $ stream_arg
          $ no_cache_arg $ cache_clear_arg $ sched_arg)

(* ------------------------------------------------------------------ *)
(* sched: scenario sweep against the symmetric baseline                *)

(* One scenario materially shifts the retry economics when its one-retry or
   fallback share moves by at least this much (absolute) versus the symmetric
   baseline under the same configuration. *)
let material_delta = 0.05

let sched_cmd =
  let module S = Machine.Stats in
  let module J = Report.Json in
  let mean = Simrt.Summary.mean in
  let run json check fingerprint jobs workload cores ops retries =
    let w = find_workload workload in
    let seeds = [ 3; 5; 7 ] in
    let tasks =
      List.concat_map
        (fun (sname, prof) ->
          List.concat_map
            (fun letter ->
              let cfg = config_of letter ~cores ~ops ~seed:0 ~retries in
              let cfg = Machine.Config.with_sched cfg prof in
              List.map
                (fun seed -> ((sname, letter, seed), { Clear_repro.Run.cfg; workload = w; seed }))
                seeds)
            Clear_repro.Experiments.letters)
        Sched.Scenarios.all
    in
    let stats_list =
      try Simrt.Pool.parallel_map ~jobs (Clear_repro.Run.runner ~check) (List.map snd tasks)
      with Clear_repro.Run.Check_failed msg ->
        Printf.eprintf "[sched] oracle violation:\n%s\n%!" msg;
        exit 1
    in
    let results = List.map2 (fun (key, _) st -> (key, st)) tasks stats_list in
    if fingerprint then
      (* OCaml-syntax golden rows for test/test_sched.ml regeneration. *)
      List.iter
        (fun ((sname, letter, seed), st) ->
          Printf.printf "    (%S, %S, %d, (%d, %d, %d, %d, %d));\n" sname letter seed
            (S.total_cycles st) (S.commits st) (S.aborts st) (S.instrs st) (S.wasted_instrs st))
        results
    else begin
      (* Aggregate seeds per (scenario, config). *)
      let agg (sname, letter) =
        let runs =
          List.filter_map
            (fun ((s, l, _), st) -> if s = sname && l = letter then Some st else None)
            results
        in
        let over f = mean (List.map f runs) in
        let one = over (fun st -> let a, _, _ = S.retry_breakdown st in a) in
        let many = over (fun st -> let _, b, _ = S.retry_breakdown st in b) in
        let fb = over (fun st -> let _, _, c = S.retry_breakdown st in c) in
        ( over (fun st -> float_of_int (S.total_cycles st)),
          over S.aborts_per_commit,
          (one, many, fb),
          over (fun st -> float_of_int (Simrt.Counter.get (S.counters st) "numa_adder_cycles")) )
      in
      let letters = Clear_repro.Experiments.letters in
      let baseline = List.map (fun l -> (l, agg ("symmetric", l))) letters in
      let scenario_rows =
        List.map
          (fun (sname, _) ->
            let per_letter =
              List.map
                (fun l ->
                  let ((_, _, (one, _, fb), _) as a) = agg (sname, l) in
                  let _, _, (bone, _, bfb), _ = List.assoc l baseline in
                  let material =
                    sname <> "symmetric"
                    && (Float.abs (one -. bone) >= material_delta
                        || Float.abs (fb -. bfb) >= material_delta)
                  in
                  (l, a, material))
                letters
            in
            (sname, per_letter))
          Sched.Scenarios.all
      in
      let materially_different =
        List.length
          (List.filter
             (fun (sname, per) -> sname <> "symmetric" && List.exists (fun (_, _, m) -> m) per)
             scenario_rows)
      in
      if json then
        print_endline
          (J.to_string_pretty
             (J.Obj
                [
                  ("workload", J.Str w.Machine.Workload.name);
                  ("cores", J.Int cores);
                  ("ops_per_thread", J.Int ops);
                  ("seeds", J.List (List.map (fun s -> J.Int s) seeds));
                  ("checked", J.Bool check);
                  ("material_delta", J.Float material_delta);
                  ("materially_different", J.Int materially_different);
                  ( "scenarios",
                    J.List
                      (List.map
                         (fun (sname, per) ->
                           J.Obj
                             [
                               ("name", J.Str sname);
                               ( "configs",
                                 J.List
                                   (List.map
                                      (fun (l, (cycles, apc, (one, many, fb), numa), material) ->
                                        J.Obj
                                          [
                                            ("config", J.Str l);
                                            ("cycles", J.Float cycles);
                                            ("aborts_per_commit", J.Float apc);
                                            ("one_retry", J.Float one);
                                            ("n_retry", J.Float many);
                                            ("fallback", J.Float fb);
                                            ("numa_adder_cycles", J.Float numa);
                                            ("materially_different", J.Bool material);
                                          ])
                                      per) );
                             ])
                         scenario_rows) );
                ]))
      else begin
        let t =
          Report.Table.create
            ~title:
              (Printf.sprintf "Scheduler scenarios: %s, %d cores, %d ops/thread (mean of %d seeds)"
                 w.Machine.Workload.name cores ops (List.length seeds))
            ~columns:
              [ "Scenario"; "Cfg"; "cycles"; "ab/commit"; "1-retry"; "n-retry"; "fallback";
                "numa-cyc"; "shift" ]
        in
        List.iter
          (fun (sname, per) ->
            List.iter
              (fun (l, (cycles, apc, (one, many, fb), numa), material) ->
                Report.Table.add_row t
                  [
                    sname;
                    l;
                    Printf.sprintf "%.0f" cycles;
                    Report.Table.f2 apc;
                    Report.Table.pct one;
                    Report.Table.pct many;
                    Report.Table.pct fb;
                    Printf.sprintf "%.0f" numa;
                    (if material then "*" else "");
                  ])
              per;
            Report.Table.add_separator t)
          scenario_rows;
        Report.Table.print t;
        Printf.printf
          "%d of %d scenarios materially shift the retry mix vs symmetric (|delta| >= %.0f%% on \
           1-retry or fallback share)\n"
          materially_different
          (List.length Sched.Scenarios.all - 1)
          (100. *. material_delta)
      end
    end
  in
  let json_arg = Arg.(value & flag & info [ "json" ] ~doc:"Machine-readable JSON output.") in
  let check_arg =
    Arg.(value & flag
         & info [ "check" ] ~doc:"Validate every scenario run with the execution oracle.")
  in
  let fingerprint_arg =
    Arg.(value & flag
         & info [ "fingerprint" ]
             ~doc:"Print OCaml-syntax golden rows (scenario, config, seed, counters) for the \
                   test tables instead of the report.")
  in
  let sched_workload_arg =
    let doc = "Benchmark driving the scenario sweep (see `clear_sim list`)." in
    Arg.(value & opt string "stack" & info [ "w"; "workload" ] ~doc)
  in
  let sched_cores_arg = Arg.(value & opt cores_conv 8 & info [ "cores" ] ~doc:"Simulated cores.") in
  let sched_ops_arg =
    Arg.(value & opt (int_at_least 1) 80 & info [ "ops" ] ~doc:"Operations per thread.")
  in
  Cmd.v
    (Cmd.info "sched"
       ~doc:"Run every schedule scenario (hot core, think skew, NUMA asymmetry, phased start) \
             against the symmetric baseline across all four configurations and report how the \
             retry/fallback mix shifts. Deterministic per (workload, cores, ops, seed).")
    Term.(const run $ json_arg $ check_arg $ fingerprint_arg $ jobs_arg $ sched_workload_arg
          $ sched_cores_arg $ sched_ops_arg $ retries_arg)

let check_cmd =
  let check workload all letter cores ops seed retries frontend stream fault_blind_line =
    let ws = if all then Workloads.Registry.all else [ find_workload workload ] in
    let cfg = config_of ~frontend letter ~cores ~ops ~seed ~retries in
    let cfg = { cfg with Machine.Config.fault_blind_line } in
    let failures = ref 0 in
    List.iter
      (fun (w : Machine.Workload.t) ->
        let _stats, verdict =
          Clear_repro.Run.run_sim_checked ~stream { Clear_repro.Run.cfg; workload = w; seed }
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
  let stream_arg =
    Arg.(value & flag
         & info [ "stream" ]
             ~doc:"Run the oracles online (incremental checker with bounded memory, DESIGN.md \
                   §14) instead of post hoc; the verdict is identical either way.")
  in
  let fault_blind_arg =
    Arg.(value & opt (some int) None
         & info [ "fault-blind-line" ] ~docv:"LINE"
             ~doc:"Inject the conflict-blindness engine bug on $(docv) (the engine stops \
                   detecting conflicts there). The oracles must catch it — used by the smoke \
                   gates to prove both checking paths fail loudly.")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Run benchmarks with the execution oracle: commit-order serializability over the \
             captured witnesses, bit-exact sequential replay of all committed ARs, and \
             lock-safety invariants. Exits non-zero on any violation.")
    Term.(const check $ workload_arg $ all_arg $ preset_arg $ cores_arg $ ops_arg $ seed_arg
          $ retries_arg $ frontend_arg $ stream_arg $ fault_blind_arg)

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
let analyze_conflicts ws json =
  let module C = Staticcheck.Conflict in
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
  let per_workload =
    List.map
      (fun (w : Machine.Workload.t) ->
        let m = C.of_ars w.Machine.Workload.ars in
        (w, m, validate w))
      ws
  in
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
                                     ("name", J.Str i.C.name);
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
                                               ("a", J.Str a.C.name);
                                               ("b", J.Str b.C.name);
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
              :: Array.to_list (Array.map (fun (i : C.ar_info) -> i.C.name) infos))
        in
        Array.iteri
          (fun ia (a : C.ar_info) ->
            Report.Table.add_row t
              (a.C.name
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
    let ws =
      match workload with
      | None -> Workloads.Registry.all
      | Some name -> [ find_workload name ]
    in
    if conflicts then analyze_conflicts ws json
    else begin
    let mismatches = ref 0 in
    let per_workload =
      List.map
        (fun (w : Machine.Workload.t) ->
          let written_regions = List.concat_map Isa.Program.regions_written w.ars in
          let dynamic = Clear.Analysis.classify_workload w.ars in
          let predictions =
            List.map (fun ar -> P.predict ~written_regions (A.analyze_ar ar)) w.ars
          in
          (* The static classification must agree with the reference
             analysis on every AR — they share the taint transfer, so any
             divergence is an analyzer bug worth failing loudly on. *)
          List.iter2
            (fun (ar, c) (p : P.t) ->
              if p.P.classification <> c then begin
                incr mismatches;
                Printf.eprintf
                  "[analyze] MISMATCH %s/%s: static %s vs Clear.Analysis %s\n%!" w.name
                  ar.Isa.Program.name
                  (Clear.Analysis.classification_name p.P.classification)
                  (Clear.Analysis.classification_name c)
              end)
            dynamic predictions;
          (w, predictions))
        ws
    in
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
        per_workload;
    if !mismatches > 0 then begin
      Printf.eprintf "[analyze] %d classification mismatch(es)\n%!" !mismatches;
      exit 1
    end
    end
  in
  let workload_filter =
    Arg.(value & opt (some string) None
         & info [ "w"; "workload" ] ~doc:"Restrict the analysis to one benchmark.")
  in
  let json_arg = Arg.(value & flag & info [ "json" ] ~doc:"Machine-readable JSON output.") in
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
             fits, the sound decision envelope, and the Table-1 mutability classification \
             (checked against the reference analysis; exits non-zero on disagreement). With \
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
  let json_arg = Arg.(value & flag & info [ "json" ] ~doc:"Machine-readable JSON output.") in
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
  let run json jobs workload keys theta loads requests process_name heat cap configs retries
      cores seed check stream =
    let process =
      match String.lowercase_ascii process_name with
      | "poisson" -> Machine.Config.Open_poisson
      | "burst" -> Machine.Config.Open_burst { heat }
      | other ->
          Printf.eprintf "unknown arrival process %s (expected poisson or burst)\n" other;
          exit 2
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
        Sweep.workload;
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
        stream;
      }
    in
    let results =
      match Sweep.run o with
      | results -> results
      | exception Not_found ->
          Printf.eprintf "unknown workload %s; try `clear_sim list`\n" workload;
          exit 2
    in
    if json then print_endline (Report.Json.to_string_pretty (Sweep.to_json o results))
    else Report.Table.print (Sweep.table results);
    if List.exists (fun (r : Openloop.Driver.t) -> r.Openloop.Driver.checked && not r.oracle_ok) results
    then begin
      Printf.eprintf "[openloop] execution-oracle violation at a checked load point\n%!";
      exit 1
    end
  in
  let json_arg = Arg.(value & flag & info [ "json" ] ~doc:"Machine-readable JSON output.") in
  let keys_arg =
    Arg.(value & opt (int_at_least 1) d.Sweep.keys
         & info [ "keys" ]
             ~doc:"Keyed-structure entries (sized well past the L3 so Zipf popularity, not \
                   cache residency, decides hotness).")
  in
  let theta_arg =
    Arg.(value & opt float d.Sweep.theta & info [ "theta" ] ~doc:"Zipf popularity skew.")
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
    Arg.(value & opt string "poisson"
         & info [ "process" ] ~doc:"Arrival process: poisson or burst.")
  in
  let heat_arg =
    Arg.(value & opt float 1.5
         & info [ "heat" ] ~doc:"Burstiness of the burst arrival process (ignored for poisson).")
  in
  let cap_arg =
    Arg.(value & opt int d.Sweep.queue_cap
         & info [ "cap" ]
             ~doc:"Waiting-request bound; arrivals beyond it are dropped at saturation \
                   (0 = unbounded).")
  in
  let configs_arg =
    Arg.(value & opt (list letter_conv) [ "B"; "C" ]
         & info [ "configs" ] ~docv:"L1,L2,..."
             ~doc:"Configurations to sweep (letters among B, P, C, W).")
  in
  let openloop_retries_arg =
    Arg.(value & opt (int_at_least 0) 1
         & info [ "retries" ]
             ~doc:"Retry limit before fallback. The default 1 makes the baseline \
                   fallback-heavy — the convoy CLEAR's single-retry bound avoids.")
  in
  let openloop_cores_arg =
    Arg.(value & opt cores_conv Machine.Config.default.Machine.Config.cores
         & info [ "cores" ] ~doc:"Simulated cores.")
  in
  let check_arg =
    Arg.(value & flag
         & info [ "check" ]
             ~doc:"Validate each configuration's lowest load point with the execution oracle \
                   (exit 1 on violation).")
  in
  let stream_arg =
    Arg.(value & flag
         & info [ "stream" ]
             ~doc:"Run the --check oracles online (incremental checker with bounded memory, \
                   DESIGN.md §14); identical verdicts, no retained history.")
  in
  Cmd.v
    (Cmd.info "openloop"
       ~doc:"Open-system sweep: requests arrive on their own schedule (Poisson or bursty), \
             queue while cores are busy, and record enqueue-to-commit sojourn latency. Emits \
             the latency-vs-offered-load curve with exact p50/p99/p999 percentiles. \
             Deterministic per seed at any --jobs.")
    Term.(const run $ json_arg $ jobs_arg $ workload_arg $ keys_arg $ theta_arg $ loads_arg
          $ requests_arg $ process_arg $ heat_arg $ cap_arg $ configs_arg $ openloop_retries_arg
          $ openloop_cores_arg $ seed_arg $ check_arg $ stream_arg)

let config_cmd =
  let show letter cores ops seed retries =
    let cfg = config_of letter ~cores ~ops ~seed ~retries in
    Format.printf "%a@." Machine.Config.pp cfg
  in
  Cmd.v (Cmd.info "config" ~doc:"Print the machine configuration (Table 2).")
    Term.(const show $ preset_arg $ cores_arg $ ops_arg $ seed_arg $ retries_arg)

let () =
  let info = Cmd.info "clear_sim" ~doc:"CLEAR bounded-retry HTM simulator." in
  exit
    (Cmd.eval
       (Cmd.group info
          [ run_cmd; suite_cmd; sched_cmd; check_cmd; list_cmd; analyze_cmd; lint_cmd;
            openloop_cmd; config_cmd ]))
