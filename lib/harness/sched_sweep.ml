module S = Machine.Stats
module J = Report.Json

type options = { workload : Machine.Workload.t; cores : int; ops : int; retries : int }

let default_options = { workload = Workloads.Stack.workload; cores = 8; ops = 80; retries = 4 }

let seeds = [ 3; 5; 7 ]

let material_delta = 0.05

type cell = {
  cycles : float;
  aborts_per_commit : float;
  one_retry : float;
  n_retry : float;
  fallback : float;
  numa_adder_cycles : float;
  material : bool;
}

type t = {
  options : options;
  checked : bool;
  runs : ((string * string * int) * S.t) list;
  scenarios : (string * (string * cell) list) list;
  materially_different : int;
}

let config o letter prof =
  Machine.Config.with_sched
    {
      (Experiments.preset letter) with
      Machine.Config.cores = o.cores;
      ops_per_thread = o.ops;
      max_retries = o.retries;
    }
    prof

let run ~jobs ~check o =
  let keys, sims =
    List.split
      (List.concat_map
         (fun (sname, prof) ->
           List.concat_map
             (fun letter ->
               let cfg = config o letter prof in
               List.map
                 (fun seed -> ((sname, letter, seed), { Run.cfg; workload = o.workload; seed }))
                 seeds)
             Experiments.letters)
         Sched.Scenarios.all)
  in
  let runs = List.combine keys (Run.batch ~jobs ~check sims) in
  (* Seed means per (scenario, preset), without the material flag. *)
  let agg sname letter =
    let sts =
      List.filter_map
        (fun ((s, l, _), st) -> if s = sname && l = letter then Some st else None)
        runs
    in
    let over f = Simrt.Summary.mean (List.map f sts) in
    let share pick = over (fun st -> pick (S.retry_breakdown st)) in
    {
      cycles = over (fun st -> float_of_int (S.total_cycles st));
      aborts_per_commit = over S.aborts_per_commit;
      one_retry = share (fun (a, _, _) -> a);
      n_retry = share (fun (_, b, _) -> b);
      fallback = share (fun (_, _, c) -> c);
      numa_adder_cycles =
        over (fun st -> float_of_int (Simrt.Counter.get (S.counters st) "numa_adder_cycles"));
      material = false;
    }
  in
  let scenarios =
    List.map
      (fun (sname, _) ->
        ( sname,
          List.map
            (fun l ->
              let c = agg sname l and b = agg "symmetric" l in
              let material =
                sname <> "symmetric"
                && (Float.abs (c.one_retry -. b.one_retry) >= material_delta
                   || Float.abs (c.fallback -. b.fallback) >= material_delta)
              in
              (l, { c with material }))
            Experiments.letters ))
      Sched.Scenarios.all
  in
  let materially_different =
    List.length
      (List.filter
         (fun (sname, per) -> sname <> "symmetric" && List.exists (fun (_, c) -> c.material) per)
         scenarios)
  in
  { options = o; checked = check; runs; scenarios; materially_different }

let to_json r =
  let cell_json (l, c) =
    J.Obj
      [
        ("config", J.Str l);
        ("cycles", J.Float c.cycles);
        ("aborts_per_commit", J.Float c.aborts_per_commit);
        ("one_retry", J.Float c.one_retry);
        ("n_retry", J.Float c.n_retry);
        ("fallback", J.Float c.fallback);
        ("numa_adder_cycles", J.Float c.numa_adder_cycles);
        ("materially_different", J.Bool c.material);
      ]
  in
  J.Obj
    [
      ("workload", J.Str r.options.workload.Machine.Workload.name);
      ("cores", J.Int r.options.cores);
      ("ops_per_thread", J.Int r.options.ops);
      ("seeds", J.List (List.map (fun s -> J.Int s) seeds));
      ("checked", J.Bool r.checked);
      ("material_delta", J.Float material_delta);
      ("materially_different", J.Int r.materially_different);
      ( "scenarios",
        J.List
          (List.map
             (fun (sname, per) ->
               J.Obj [ ("name", J.Str sname); ("configs", J.List (List.map cell_json per)) ])
             r.scenarios) );
    ]

let table r =
  let t =
    Report.Table.create
      ~title:
        (Printf.sprintf "Scheduler scenarios: %s, %d cores, %d ops/thread (mean of %d seeds)"
           r.options.workload.Machine.Workload.name r.options.cores r.options.ops
           (List.length seeds))
      ~columns:
        [
          "Scenario"; "Cfg"; "cycles"; "ab/commit"; "1-retry"; "n-retry"; "fallback"; "numa-cyc";
          "shift";
        ]
  in
  List.iter
    (fun (sname, per) ->
      List.iter
        (fun (l, c) ->
          Report.Table.add_row t
            [
              sname;
              l;
              Printf.sprintf "%.0f" c.cycles;
              Report.Table.f2 c.aborts_per_commit;
              Report.Table.pct c.one_retry;
              Report.Table.pct c.n_retry;
              Report.Table.pct c.fallback;
              Printf.sprintf "%.0f" c.numa_adder_cycles;
              (if c.material then "*" else "");
            ])
        per;
      Report.Table.add_separator t)
    r.scenarios;
  t

let summary r =
  Printf.sprintf
    "%d of %d scenarios materially shift the retry mix vs symmetric (|delta| >= %.0f%% on 1-retry \
     or fallback share)"
    r.materially_different
    (List.length Sched.Scenarios.all - 1)
    (100. *. material_delta)
