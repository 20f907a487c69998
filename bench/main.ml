(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation, runs the design-choice ablations, and runs the repository's
   gate (bench/gate.ml).

     dune exec bench/main.exe                  -- everything (quick-sized)
     dune exec bench/main.exe fig8             -- one artefact
     dune exec bench/main.exe -- --paper all   -- paper-sized sweep (slow)
     dune exec bench/main.exe -- --jobs 8 fig8 -- sweep on 8 domains
     dune exec bench/main.exe -- gate          -- every hard gate, BENCH_gate.json rows

   The suite runs on a pool of OCaml domains (--jobs N, default: host cores
   minus one) and is memoised on disk under _cache/ as one shard per
   (config, workload, seed) simulation keyed by the executable's digest, so
   later artefact invocations only re-simulate what is missing — and editing
   one workload after a rebuild re-simulates the whole sweep once but then
   shares shards across runs again. --no-cache bypasses the disk cache
   (it neither reads nor writes); --check validates every simulation with
   the execution oracle (and implies --no-cache, since a cache hit would
   skip validation); --smoke selects a tiny fixed suite (the gate's smoke
   suite); --only W1,W2 restricts the sweep to the named workloads; --sched
   NAME runs the sweep under a schedule scenario (see `clear_sim sched`).
   The gate runs at its own fixed sizes and ignores these flags.

   Artefacts: table1 table2 fig1 fig8 fig9 fig10 fig11 fig12 fig13 headline
   ablation sle storage all *)

module Experiments = Clear_repro.Experiments
module Run = Clear_repro.Run
module Table = Report.Table
module Config = Machine.Config
module Stats = Machine.Stats

(* Quick-sized defaults: the full 4-config x 19-benchmark sweep with a retry
   sweep per pair finishes in minutes, not hours. *)
let quick_suite_options =
  {
    Experiments.cores = 32;
    ops_per_thread = 150;
    seeds = [ 11; 23; 37 ];
    trim = 0;
    retry_choices = [ 1; 2; 4; 8 ];
    sched = Sched.Profile.symmetric;
  }

(* Tiny fixed suite for the smoke gate: seconds, not minutes, even on one
   core, yet still the full 4-config x 19-benchmark cross product. *)
let smoke_suite_options =
  {
    Experiments.cores = 4;
    ops_per_thread = 40;
    seeds = [ 3; 5 ];
    trim = 0;
    retry_choices = [ 2; 5 ];
    sched = Sched.Profile.symmetric;
  }

let progress label = Printf.eprintf "[bench] %s\n%!" label

let jobs = ref (Simrt.Pool.default_jobs ())

let use_disk_cache = ref true

let check = ref false

(* --sched NAME: run the whole artefact sweep under a schedule scenario.
   Scenario runs use distinct Suite_cache shard keys (the profile is part of
   the config digest), so they never collide with symmetric results. *)
let sched_profile = ref Sched.Profile.symmetric

(* --only W1,W2: restrict the suite sweep to the named workloads, which keeps
   a paper-sized (--paper) run affordable on a small host; figures derived
   from a restricted suite only contain the selected rows. *)
let only_workloads : Machine.Workload.t list option ref = ref None

(* The suite is computed once per process and reused by every figure
   (in-memory cache), and additionally memoised on disk per (config,
   workload, seed) shard (Suite_cache) so that subsequent invocations of the
   executable only re-simulate what changed. A --check run bypasses the disk
   cache in both directions: a hit would skip the oracle, and a checked
   result is no more reusable than an unchecked one. *)
let suite_cache : Experiments.suite option ref = ref None

let get_suite opts =
  match !suite_cache with
  | Some s -> s
  | None ->
      let use_cache = !use_disk_cache && not !check in
      let n_workloads =
        List.length (match !only_workloads with Some l -> l | None -> Workloads.Registry.all)
      in
      progress
        (Printf.sprintf
           "running full suite (4 configs x %d benchmarks x retry sweep) on %d domain(s)%s%s..."
           n_workloads !jobs
           (if !check then " with the execution oracle" else "")
           (if use_cache then ", shard cache on" else ""));
      let t0 = Unix.gettimeofday () in
      let s =
        Experiments.run_suite ~jobs:!jobs ~check:!check ~cache:use_cache ?workloads:!only_workloads ~progress opts
      in
      progress (Printf.sprintf "suite done in %.1f s" (Unix.gettimeofday () -. t0));
      suite_cache := Some s;
      s

(* ------------------------------------------------------------------ *)
(* Ablations (DESIGN.md section 5) *)

let ablation_workloads () =
  [ Workloads.Mwobject.workload; Workloads.Bitcoin.workload; Workloads.Bst.workload ]

let ablation opts =
  let base = Experiments.config_of_letter opts "C" in
  let variants =
    [
      ("CLEAR", base);
      ("no failed-mode discovery", { base with Config.failed_mode_discovery = false });
      ("no CRT read locking", { base with Config.use_crt = false });
      ("no CRT decay", { base with Config.crt_decay = false });
      ("baseline (no CLEAR)", { base with Config.clear_enabled = false });
    ]
  in
  let t =
    Table.create ~title:"Ablation: CLEAR design choices (cycles, conversions)"
      ~columns:[ "Benchmark"; "Variant"; "Cycles"; "Aborts/commit"; "NS-CL+S-CL share"; "Fallback share" ]
  in
  List.iter
    (fun (w : Machine.Workload.t) ->
      List.iter
        (fun (label, cfg) ->
          let m =
            Run.measure ~jobs:!jobs ~check:!check cfg w ~seeds:opts.Experiments.seeds
              ~trim:opts.Experiments.trim
          in
          let mode m' = List.assoc m' m.Run.commit_mode_fractions in
          Table.add_row t
            [
              w.name;
              label;
              Printf.sprintf "%.0f" m.Run.cycles;
              Table.f2 m.Run.aborts_per_commit;
              Table.pct (mode Stats.Scl +. mode Stats.Nscl);
              Table.pct (mode Stats.Fallback);
            ])
        variants;
      Table.add_separator t)
    (ablation_workloads ());
  t

(* ------------------------------------------------------------------ *)
(* Extension: HTM vs SLE front-ends (paper §4.1/§4.3 describe CLEAR for
   both; the paper evaluates HTM only). *)

let sle_comparison opts =
  let t =
    Table.create
      ~title:"Extension: speculation front-ends (cycles; SLE fallback takes the region's own lock)"
      ~columns:[ "Benchmark"; "B/HTM"; "B/SLE"; "W/HTM"; "W/SLE" ]
  in
  let workloads = [ "hashmap"; "kmeans-h"; "vacation-h"; "ssca2"; "bitcoin"; "stack" ] in
  List.iter
    (fun name ->
      let w = Workloads.Registry.find name in
      let cell letter frontend =
        let cfg = Config.with_frontend (Experiments.config_of_letter opts letter) frontend in
        let m =
          Run.measure ~jobs:!jobs ~check:!check cfg w ~seeds:opts.Experiments.seeds
            ~trim:opts.Experiments.trim
        in
        Printf.sprintf "%.0f" m.Run.cycles
      in
      Table.add_row t
        [
          name;
          cell "B" Config.Htm;
          cell "B" Config.Sle;
          cell "W" Config.Htm;
          cell "W" Config.Sle;
        ])
    workloads;
  t

(* ------------------------------------------------------------------ *)

let csv_dir : string option ref = ref None

(* Print the table; also export it as CSV when --csv DIR was given. *)
let emit name t =
  Table.print t;
  match !csv_dir with
  | None -> ()
  | Some dir ->
      let path = Filename.concat dir (name ^ ".csv") in
      Report.Csv.save ~path t;
      Printf.eprintf "[bench] wrote %s\n%!" path

let artefacts opts =
  [
    ("table1", fun () -> emit "table1" (Experiments.table1 ()));
    ("table2", fun () -> emit "table2" (Experiments.table2 opts));
    ("fig1", fun () -> emit "fig1" (Experiments.fig1 (get_suite opts)));
    ("fig8", fun () ->
        emit "fig8" (Experiments.fig8 (get_suite opts));
        emit "fig8_discovery" (Experiments.fig8_discovery (get_suite opts)));
    ("fig9", fun () -> emit "fig9" (Experiments.fig9 (get_suite opts)));
    ("fig10", fun () -> emit "fig10" (Experiments.fig10 (get_suite opts)));
    ("fig11", fun () -> emit "fig11" (Experiments.fig11 (get_suite opts)));
    ("fig12", fun () -> emit "fig12" (Experiments.fig12 (get_suite opts)));
    ("fig13", fun () -> emit "fig13" (Experiments.fig13 (get_suite opts)));
    ("headline", fun () -> emit "headline" (Experiments.headline (get_suite opts)));
    ("ablation", fun () -> emit "ablation" (ablation opts));
    ("sle", fun () -> emit "sle" (sle_comparison opts));
    ("storage", fun () ->
        let t =
          Table.create ~title:"Storage overhead per core (paper S5: 988.5 bytes)"
            ~columns:[ "Structure"; "Paper"; "Computed" ]
        in
        let b = Clear.Storage.paper in
        Table.add_row t [ "indirection bits (180 pregs)"; "22.5 B"; Printf.sprintf "%.1f B" b.Clear.Storage.indirection_bytes ];
        Table.add_row t [ "ERT (16 entries)"; "146 B"; Printf.sprintf "%.1f B" b.Clear.Storage.ert_bytes ];
        Table.add_row t [ "ALT (32 entries)"; "276 B"; Printf.sprintf "%.1f B" b.Clear.Storage.alt_bytes ];
        Table.add_row t [ "CRT (64 entries)"; "544 B"; Printf.sprintf "%.1f B" b.Clear.Storage.crt_bytes ];
        Table.add_separator t;
        Table.add_row t [ "total"; "988.5 B"; Printf.sprintf "%.1f B" b.Clear.Storage.total_bytes ];
        emit "storage" t);
  ]

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let paper = List.mem "--paper" args in
  let smoke = List.mem "--smoke" args in
  let opts =
    if smoke then smoke_suite_options
    else if paper then Experiments.default_options
    else quick_suite_options
  in
  let rec strip_flags acc = function
    | "--csv" :: dir :: rest ->
        csv_dir := Some dir;
        (try Unix.mkdir dir 0o755 with
        | Unix.Unix_error (Unix.EEXIST, _, _) -> ()
        | Unix.Unix_error (e, _, _) ->
            Printf.eprintf "--csv: cannot create directory %s: %s\n" dir (Unix.error_message e);
            exit 2);
        strip_flags acc rest
    | "--jobs" :: n :: rest ->
        (match int_of_string_opt n with
        | Some n -> jobs := Simrt.Pool.clamp_jobs ~context:"bench" n
        | None ->
            Printf.eprintf "--jobs expects a positive integer, got %s\n" n;
            exit 2);
        strip_flags acc rest
    | "--no-cache" :: rest ->
        use_disk_cache := false;
        strip_flags acc rest
    | "--check" :: rest ->
        check := true;
        strip_flags acc rest
    | "--sched" :: name :: rest ->
        (match Sched.Scenarios.find (String.lowercase_ascii name) with
        | Some p -> sched_profile := p
        | None ->
            Printf.eprintf "--sched expects one of %s, got %s\n"
              (String.concat ", " Sched.Scenarios.names) name;
            exit 2);
        strip_flags acc rest
    | "--only" :: names :: rest ->
        let picked =
          String.split_on_char ',' names
          |> List.map (fun n ->
                 let n = String.trim n in
                 match Workloads.Registry.find n with
                 | w -> w
                 | exception Not_found ->
                     Printf.eprintf "--only: unknown workload %s; available: %s\n" n
                       (String.concat " " Workloads.Registry.names);
                     exit 2)
        in
        only_workloads := Some picked;
        strip_flags acc rest
    | a :: rest -> strip_flags (a :: acc) rest
    | [] -> List.rev acc
  in
  let args = strip_flags [] args in
  let opts = { opts with Experiments.sched = !sched_profile } in
  if not (Sched.Profile.is_symmetric !sched_profile) then
    progress
      (Printf.sprintf "schedule scenario: %s (%s)" !sched_profile.Sched.Profile.name
         !sched_profile.Sched.Profile.description);
  let wanted = List.filter (fun a -> a <> "--paper" && a <> "--smoke") args in
  if wanted = [ "gate" ] then exit (Gate.run ~smoke:smoke_suite_options);
  let wanted =
    if wanted = [] || List.mem "all" wanted then List.map fst (artefacts opts) else wanted
  in
  let available = artefacts opts in
  List.iter
    (fun name ->
      match List.assoc_opt name available with
      | Some f ->
          f ();
          print_newline ()
      | None ->
          Printf.eprintf "unknown artefact %s; available: %s\n" name
            (String.concat " " (List.map fst available));
          exit 2)
    wanted
