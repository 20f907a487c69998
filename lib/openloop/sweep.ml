module Config = Machine.Config

type options = {
  workload : string;
  keys : int;
  theta : float;
  loads : float list;
  requests : int;
  process : Config.open_process;
  queue_cap : int;
  configs : Config.t list;
  seed : int;
  jobs : int;
  check : bool;
}

(* Defaults shared by the CLI and the smoke harness. Retries 1 makes the
   baseline fallback-heavy — the contrast CLEAR's single-retry bound exists
   to beat — and the key space (1 MiW of array lines = 8 MiB) is twice the
   L3, so popularity skew rather than cache residency decides hotness.
   The skew sits far above the closed-loop tiers ({!Workloads.Common}
   tops out at 0.6): over 2^17 keys a 0.6 head almost never collides, and
   the overload figure needs a genuinely hot head — theta 6 puts ~2.3% of
   requests on the hottest line, enough for the fallback convoy to form. *)
let default_options =
  {
    workload = "arrayswap";
    keys = 1 lsl 17;
    theta = 6.0;
    loads = [ 30.0; 60.0; 120.0 ];
    requests = 3_000;
    process = Config.Open_poisson;
    queue_cap = 0;
    configs =
      [
        Config.with_retries Config.baseline 1;
        Config.with_retries Config.clear_rw 1;
      ];
    seed = 42;
    jobs = 1;
    check = false;
  }

let run (o : options) =
  if o.loads = [] then invalid_arg "Openloop.Sweep.run: empty load list";
  if o.configs = [] then invalid_arg "Openloop.Sweep.run: empty config list";
  let workload = Workloads.Registry.open_scaled o.workload ~keys:o.keys ~theta:o.theta in
  let loads = List.sort_uniq compare o.loads in
  let lowest = List.hd loads in
  let tasks =
    List.concat_map
      (fun cfg ->
        List.map
          (fun rate ->
            let q =
              {
                Config.open_rate = rate;
                open_requests = o.requests;
                open_process = o.process;
                open_queue_cap = o.queue_cap;
              }
            in
            (Config.with_openloop (Config.with_seed cfg o.seed) (Some q), o.check && rate = lowest))
          loads)
      o.configs
  in
  (* Order-preserving map: results line up with the (config, load) grid, so
     the emitted curve is identical at any job count. *)
  Simrt.Pool.parallel_map ~jobs:o.jobs
    (fun (cfg, check) -> Driver.run_point ~check cfg workload)
    tasks

let to_json (o : options) results =
  Report.Json.Obj
    [
      ("schema", Report.Json.Str "clear-sim/openloop-sweep/v1");
      ("workload", Report.Json.Str o.workload);
      ("keys", Report.Json.Int o.keys);
      ("theta", Report.Json.Float o.theta);
      ("process", Report.Json.Str (Config.open_process_name o.process));
      ("requests", Report.Json.Int o.requests);
      ("queue_cap", Report.Json.Int o.queue_cap);
      ("seed", Report.Json.Int o.seed);
      ("curve", Report.Json.List (List.map Driver.to_json results));
    ]

let pctl_cell f = function
  | None -> "-"
  | Some (p : Report.Percentile.t) -> string_of_int (f p)

let table results =
  let t =
    Report.Table.create ~title:"Open-system sweep: sojourn latency vs offered load"
      ~columns:
        [
          "preset";
          "rate/kcyc";
          "completed";
          "dropped";
          "qdepth_hw";
          "p50";
          "p99";
          "p999";
          "max";
          "oracle";
        ]
  in
  let last_preset = ref "" in
  List.iter
    (fun (r : Driver.t) ->
      if !last_preset <> "" && !last_preset <> r.Driver.preset then Report.Table.add_separator t;
      last_preset := r.Driver.preset;
      Report.Table.add_row t
        [
          r.Driver.preset;
          Report.Table.f2 r.Driver.rate;
          string_of_int r.Driver.completed;
          string_of_int r.Driver.dropped;
          string_of_int r.Driver.qdepth_hw;
          pctl_cell (fun p -> p.Report.Percentile.p50) r.Driver.sojourn;
          pctl_cell (fun p -> p.Report.Percentile.p99) r.Driver.sojourn;
          pctl_cell (fun p -> p.Report.Percentile.p999) r.Driver.sojourn;
          pctl_cell (fun p -> p.Report.Percentile.max) r.Driver.sojourn;
          (if not r.Driver.checked then "-" else if r.Driver.oracle_ok then "ok" else "FAIL");
        ])
    results;
  t
