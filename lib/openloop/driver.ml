module Config = Machine.Config

type t = {
  workload : string;
  preset : string;
  retries : int;
  rate : float;
  process : string;
  seed : int;
  total_cycles : int;
  commits : int;
  requests : int;
  admitted : int;
  dropped : int;
  completed : int;
  qdepth_hw : int;
  sojourn : Report.Percentile.t option;
  wait : Report.Percentile.t option;
  checked : bool;
  stream : bool;
  oracle_ok : bool;
  events : int;  (** engine events popped — the oracle's stream length scale *)
  check_live_lines : int;  (** streaming-checker live-line high-water mark *)
  check_retired : int;  (** checker entries retired behind the frontier *)
}

(* [?stream] is accepted and ignored: checked points always stream. *)
let run_point ?(check = false) ?stream:_ (cfg : Config.t) (workload : Machine.Workload.t) =
  let q =
    match cfg.Config.openloop with
    | Some q -> q
    | None -> invalid_arg "Openloop.Driver.run_point: config has no open queue"
  in
  (* The collector forwards emissions to the online checker and retains
     nothing, which is what keeps always-on checking affordable at
     open-system history lengths. *)
  let streamer =
    if check then
      Some
        (Check.Stream.create
           ~static_gate:(Clear_repro.Run.static_gate_of_config cfg)
           ~cores:cfg.Config.cores ())
    else None
  in
  let collector =
    Option.map
      (fun str -> Check.Collector.create_streaming ~cores:cfg.Config.cores (Check.Stream.sink str))
      streamer
  in
  let engine = Machine.Engine.create ?check:collector cfg workload in
  let stats = Machine.Engine.run engine in
  let oracle_ok =
    match streamer with
    | None -> true
    | Some str ->
        let final = Mem.Store.snapshot (Machine.Engine.store engine) in
        Check.Verdict.ok (Check.Verdict.of_stream str ~final)
  in
  let perf = Machine.Engine.perfctr engine in
  let oq =
    match Machine.Engine.openq engine with
    | Some oq -> oq
    | None -> assert false (* cfg.openloop is Some, so the engine built one *)
  in
  {
    workload = workload.Machine.Workload.name;
    preset = Config.preset_letter cfg;
    retries = cfg.Config.max_retries;
    rate = q.Config.open_rate;
    process = Config.open_process_name q.Config.open_process;
    seed = cfg.Config.seed;
    total_cycles = Machine.Stats.total_cycles stats;
    commits = Machine.Stats.commits stats;
    requests = q.Config.open_requests;
    admitted = Machine.Openq.admitted oq;
    dropped = Machine.Openq.dropped oq;
    completed = Machine.Openq.completed oq;
    qdepth_hw = Machine.Openq.qdepth_hw oq;
    sojourn = Report.Percentile.of_samples (Machine.Openq.sojourns oq);
    wait = Report.Percentile.of_samples (Machine.Openq.waits oq);
    checked = check;
    stream = check;
    oracle_ok;
    events = perf.Simrt.Perfctr.events_popped;
    check_live_lines = perf.Simrt.Perfctr.check_live_lines;
    check_retired = perf.Simrt.Perfctr.check_retired;
  }

let percentile_json = function
  | None -> Report.Json.Null
  | Some p -> Report.Percentile.to_json p

let to_json r =
  Report.Json.Obj
    [
      ("workload", Report.Json.Str r.workload);
      ("preset", Report.Json.Str r.preset);
      ("retries", Report.Json.Int r.retries);
      ("rate", Report.Json.Float r.rate);
      ("process", Report.Json.Str r.process);
      ("seed", Report.Json.Int r.seed);
      ("total_cycles", Report.Json.Int r.total_cycles);
      ("commits", Report.Json.Int r.commits);
      ("requests", Report.Json.Int r.requests);
      ("admitted", Report.Json.Int r.admitted);
      ("dropped", Report.Json.Int r.dropped);
      ("completed", Report.Json.Int r.completed);
      ("qdepth_hw", Report.Json.Int r.qdepth_hw);
      ("sojourn", percentile_json r.sojourn);
      ("wait", percentile_json r.wait);
      ("checked", Report.Json.Bool r.checked);
      ("stream", Report.Json.Bool r.stream);
      ("oracle_ok", Report.Json.Bool r.oracle_ok);
      ("events", Report.Json.Int r.events);
      ("check_live_lines", Report.Json.Int r.check_live_lines);
      ("check_retired", Report.Json.Int r.check_retired);
    ]
