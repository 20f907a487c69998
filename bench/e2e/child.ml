(* One child process runs one fixed unit of one workload and prints what it
   measured on stdout, one record per line:

     m NAME VALUE    a measured value
     d NAME HEX      a simulated-output digest
     ops A F         ops attempted and failed
     x REASON        why an op failed
     e JSON          a Chrome-trace event (traced children only)

   The seed reaches the simulator only as generated configs and arrival
   schedules. *)

module Config = Machine.Config
module Experiments = Clear_repro.Experiments
module Run = Clear_repro.Run
module Driver = Openloop.Driver

type size = Full | Quick

let workloads = Metric.workloads

(* ------------------------------------------------------------------ *)
(* Inputs *)

(* The paper's protocol at reduced scale: every registry workload under
   B/P/C/W, retry limits 1 and 4, 16 cores of 40 ops each, one seed —
   152 short independent sims. Short runs let best-of-N see past the host's
   slow episodes. *)
let sweep_options seed =
  {
    Experiments.cores = 16;
    ops_per_thread = 40;
    seeds = [ seed ];
    trim = 0;
    retry_choices = [ 1; 4 ];
    sched = Sched.Profile.symmetric;
  }

let sweep_workloads = function
  | Full -> Workloads.Registry.all
  | Quick -> List.filteri (fun i _ -> i < 2) Workloads.Registry.all

let sweep_sims size =
  List.length (sweep_workloads size)
  * List.length Experiments.letters
  * List.length (sweep_options 0).Experiments.retry_choices
  * List.length (sweep_options 0).Experiments.seeds

(* Requests per open-loop point. At 100 000 each point's uniform partner
   keys touch more lines than the 65 536-line L3 holds, so the L3 fills and
   evicts; at 50 000 it never fills. *)
let open_requests = function Full -> 100_000 | Quick -> 5_000

(* Two points below saturation (about 24 and 62 req/kcycle), so the
   backlog stays bounded: baseline at 20, CLEAR at 50 req/kcycle, both at
   retry limit 1, over an 8 MiB key space (twice the L3). *)
let open_points size seed =
  List.map
    (fun (cfg, rate) ->
      Config.with_openloop
        (Config.with_seed (Config.with_retries cfg 1) seed)
        (Some
           {
             Config.open_rate = rate;
             open_requests = open_requests size;
             open_process = Config.Open_poisson;
             open_queue_cap = 0;
           }))
    [ (Config.baseline, 20.0); (Config.clear_rw, 50.0) ]

let open_workload () = Workloads.Registry.open_scaled "arrayswap" ~keys:(1 lsl 17) ~theta:6.0

let expected_ops size = function "sweep" -> sweep_sims size | _ -> 2

(* ------------------------------------------------------------------ *)
(* Outcome of one unit *)

type outcome = {
  setup_ns : int;  (** set-up inside the process, after [main] started *)
  end_ns : int;  (** when the measured work ended *)
  sims : int;
  requests : int;  (** simulated requests completed *)
  failed : int;  (** ops that failed *)
  reasons : string list;
  digests : (string * string) list;  (** the first is the unit's own *)
  layer : (string * float) list;  (** per-layer values (traced only) *)
  spans : Spans.span list;
}

let digest_of s = Digest.to_hex (Digest.string s)

let s_of_ns ns = float_of_int ns /. 1e9

let gc_delta f =
  let a = Gc.quick_stat () in
  let v = f () in
  let b = Gc.quick_stat () in
  (v, b.Gc.minor_collections - a.Gc.minor_collections, b.Gc.major_collections - a.Gc.major_collections)

let top_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

(* Commits-weighted model statistics over a set of runs. *)
let sim_layer stats =
  let sum f = List.fold_left (fun acc s -> acc +. f s) 0.0 stats in
  let counter name =
    sum (fun s -> float_of_int (Simrt.Counter.get (Machine.Stats.counters s) name))
  in
  let commits = sum (fun s -> float_of_int (Machine.Stats.commits s)) in
  let weighted f =
    if commits = 0.0 then 0.0
    else sum (fun s -> f s *. float_of_int (Machine.Stats.commits s)) /. commits
  in
  [
    ("sim.total_cycles", sum (fun s -> float_of_int (Machine.Stats.total_cycles s)));
    ("sim.commits", commits);
    ( "sim.aborts_per_commit",
      if commits = 0.0 then 0.0 else sum (fun s -> float_of_int (Machine.Stats.aborts s)) /. commits );
    ("sim.single_retry_frac", weighted Machine.Stats.single_retry_ratio);
    ("sim.fallback_frac", weighted Machine.Stats.fallback_ratio);
    ("sim.l3_hits", counter "l3_hit");
    ("sim.mem_accesses", counter "mem_access");
  ]

let perf_layer (perf : Simrt.Perfctr.t) ~run_self_ns =
  let events = max 1 perf.Simrt.Perfctr.events_popped in
  [
    ("engine.run_self_s", s_of_ns run_self_ns);
    ("engine.events", float_of_int perf.events_popped);
    ("engine.ns_per_event", float_of_int run_self_ns /. float_of_int events);
    ("perfctr.conflict_checks", float_of_int perf.conflict_checks);
    ("perfctr.conflict_hits", float_of_int perf.conflict_hits);
    ("perfctr.aborts", float_of_int perf.aborts);
    ("perfctr.commits", float_of_int perf.commits);
    ("perfctr.footprint_inserts", float_of_int perf.footprint_inserts);
    ("perfctr.store_forward_scans", float_of_int perf.store_forward_scans);
    ("gc.alloc_words_per_event", float_of_int perf.allocated_words /. float_of_int events);
  ]

(* ------------------------------------------------------------------ *)
(* sweep *)

let render suite =
  String.concat ""
    (List.map Report.Table.to_string
       [ Experiments.fig1 suite; Experiments.fig8 suite; Experiments.fig9 suite; Experiments.headline suite ])

(* Untraced: the public entry point users call. *)
let sweep_untraced ~size ~seed ~jobs =
  let t0 = Spans.now () in
  let opts = sweep_options seed and workloads = sweep_workloads size in
  let setup_ns = Spans.now () - t0 in
  let suite = Experiments.run_suite ~cache:false ~jobs ~workloads opts in
  (setup_ns, digest_of (render suite))

(* Traced: run_suite's task list rebuilt in run_suite's order, each task
   wrapped in spans, and run_suite's aggregation replayed, so the digest
   must equal the untraced one. *)
let sweep_tasks opts workloads =
  List.concat_map
    (fun (w : Machine.Workload.t) ->
      List.concat_map
        (fun letter ->
          let cfg = Experiments.config_of_letter opts letter in
          List.concat_map
            (fun n -> Run.sims (Config.with_retries cfg n) w ~seeds:opts.Experiments.seeds)
            opts.Experiments.retry_choices)
        Experiments.letters)
    workloads

let aggregate opts workloads results =
  let per_seed = List.length opts.Experiments.seeds in
  let next = ref 0 in
  let take () =
    let runs = List.init per_seed (fun j -> results.(!next + j)) in
    next := !next + per_seed;
    runs
  in
  let rows =
    List.map
      (fun (w : Machine.Workload.t) ->
        ( w.Machine.Workload.name,
          List.map
            (fun letter ->
              let cfg = Experiments.config_of_letter opts letter in
              let candidates =
                List.map
                  (fun n -> Run.of_stats (Config.with_retries cfg n) w ~trim:opts.Experiments.trim (take ()))
                  opts.Experiments.retry_choices
              in
              (letter, Run.best candidates))
            Experiments.letters ))
      workloads
  in
  { Experiments.options = opts; rows }

type pass = {
  suite : Experiments.suite;
  text : string;
  stats : Machine.Stats.t list;
  perf : Simrt.Perfctr.t;
  tasks : Spans.span list;  (** every span recorded inside pool tasks *)
  pool_span : Spans.span;
  aggregate_ns : int;
  render_ns : int;
  minor : int;
  major : int;
}

let sweep_pass rec_ ~opts ~workloads ~jobs ~label ~base =
  let tasks =
    Spans.span rec_ "harness.tasks" (fun () -> List.mapi (fun i s -> (i, s)) (sweep_tasks opts workloads))
  in
  let results, minor, major =
    gc_delta (fun () ->
        Spans.span rec_ label (fun () ->
            let parent = Spans.current rec_ in
            Simrt.Pool.parallel_map ~jobs
              (fun (i, (sim : Run.sim)) ->
                let r = Spans.create ~base:(base + ((i + 1) lsl 20)) ~parent () in
                let stats, perf =
                  Spans.span r ~req:i "sim" (fun () ->
                      let engine =
                        Spans.span r ~req:i "engine.create" (fun () ->
                            Machine.Engine.create (Config.with_seed sim.Run.cfg sim.Run.seed) sim.Run.workload)
                      in
                      let stats = Spans.span r ~req:i "engine.run" (fun () -> Machine.Engine.run engine) in
                      (stats, Machine.Engine.perfctr engine))
                in
                (stats, perf, r.Spans.spans))
              tasks))
  in
  let stats = List.map (fun (s, _, _) -> s) results in
  let perf = Simrt.Perfctr.create () in
  List.iter (fun (_, p, _) -> Simrt.Perfctr.merge_into ~dst:perf p) results;
  let t0 = Spans.now () in
  let suite =
    Spans.span rec_ "harness.aggregate" (fun () -> aggregate opts workloads (Array.of_list stats))
  in
  let t1 = Spans.now () in
  let text = Spans.span rec_ "report.render" (fun () -> render suite) in
  let t2 = Spans.now () in
  {
    suite;
    text;
    stats;
    perf;
    tasks = List.concat_map (fun (_, _, spans) -> spans) results;
    pool_span = List.hd (Spans.named label rec_.Spans.spans);
    aggregate_ns = t1 - t0;
    render_ns = t2 - t1;
    minor;
    major;
  }

let percentile_ms sorted q =
  if Array.length sorted = 0 then 0.0 else float_of_int (Report.Percentile.percentile sorted q) /. 1e6

let pool_layer ~jobs (p : pass) =
  let sims = Spans.named "sim" p.tasks in
  let busy = List.fold_left (fun acc s -> acc + Spans.dur s) 0 sims in
  let span = max 1 (Spans.dur p.pool_span) in
  (* Idle tail: from the moment the first worker ran out of tasks to the end
     of the map. *)
  let last_end = Hashtbl.create 8 in
  List.iter
    (fun (s : Spans.span) ->
      let prev = Option.value (Hashtbl.find_opt last_end s.Spans.tid) ~default:0 in
      Hashtbl.replace last_end s.Spans.tid (max prev s.Spans.t1))
    sims;
  let first_drain = Hashtbl.fold (fun _ t acc -> min t acc) last_end p.pool_span.Spans.t1 in
  let durs = Array.of_list (List.map Spans.dur sims) in
  Array.sort Int.compare durs;
  [
    ("pool.jobs", float_of_int jobs);
    ("pool.busy_frac", float_of_int busy /. float_of_int (jobs * span));
    ("pool.tail_s", s_of_ns (p.pool_span.Spans.t1 - first_drain));
    ("pool.task_p50_ms", percentile_ms durs 0.50);
    ("pool.task_p95_ms", percentile_ms durs 0.95);
  ]

let sweep_traced rec_ ~size ~seed ~jobs =
  let t0 = Spans.now () in
  let opts = sweep_options seed and workloads = sweep_workloads size in
  let setup_ns = Spans.now () - t0 in
  let main = sweep_pass rec_ ~opts ~workloads ~jobs ~label:"pool.map" ~base:(1 lsl 40) in
  let end_ns = Spans.now () and top_heap = top_heap_mb () in
  (* The same task list on one domain: the pool's speedup, and the jobs
     identity (any job count must give the same bytes). *)
  let serial = sweep_pass rec_ ~opts ~workloads ~jobs:1 ~label:"pool.map.jobs1" ~base:(2 lsl 40) in
  let all_spans = rec_.Spans.spans @ main.tasks @ serial.tasks in
  (* Figure 1's average row, unrounded. *)
  let fig1_mean =
    Simrt.Summary.mean
      (List.map (fun (_, per) -> (List.assoc "B" per).Run.fig1_ratio) main.suite.Experiments.rows)
  in
  let layer =
    [
      ("harness.aggregate_s", s_of_ns main.aggregate_ns);
      ("report.render_s", s_of_ns main.render_ns);
      ( "pool.speedup",
        float_of_int (Spans.dur serial.pool_span) /. float_of_int (max 1 (Spans.dur main.pool_span)) );
      ("engine.create_s", s_of_ns (Spans.total_ns "engine.create" main.tasks));
      ("gc.minor_collections", float_of_int main.minor);
      ("gc.major_collections", float_of_int main.major);
      ("gc.top_heap_mb", top_heap);
      ("sim.fig1_ratio_mean", fig1_mean);
    ]
    @ pool_layer ~jobs main
    @ perf_layer main.perf ~run_self_ns:(Spans.total_self_ns "engine.run" main.tasks)
    @ sim_layer main.stats
  in
  (setup_ns, end_ns, main, serial, layer, all_spans)

(* ------------------------------------------------------------------ *)
(* serve / checked: Openloop.Driver.run_point's public call sequence,
   replayed step by step so set-up (gate, checker, Engine.create) is timed
   apart from the run. *)

type sink_time = {
  mutable sink_ns : int;
  mutable sink_calls : int;
  mutable commit_ns : int;
  mutable commit_calls : int;
  mutable lock_ns : int;
  mutable lock_calls : int;
}

(* Count-plus-busy-time accumulators around every callback of the sink the
   streaming collector forwards to. *)
let timed_sink acc (s : Check.Collector.sink) =
  let timed f x =
    let t0 = Spans.now () in
    f x;
    let d = Spans.now () - t0 in
    acc.sink_ns <- acc.sink_ns + d;
    acc.sink_calls <- acc.sink_calls + 1;
    d
  in
  {
    Check.Collector.sink_initial = (fun img -> ignore (timed s.Check.Collector.sink_initial img));
    sink_commit =
      (fun w ->
        acc.commit_ns <- acc.commit_ns + timed s.sink_commit w;
        acc.commit_calls <- acc.commit_calls + 1);
    sink_driver_writes =
      (fun ~time ~core ~stores -> ignore (timed (fun () -> s.sink_driver_writes ~time ~core ~stores) ()));
    sink_lock_event =
      (fun e ->
        acc.lock_ns <- acc.lock_ns + timed s.sink_lock_event e;
        acc.lock_calls <- acc.lock_calls + 1);
    sink_decision = (fun d -> ignore (timed s.sink_decision d));
    sink_conflict = (fun c -> ignore (timed s.sink_conflict c));
    sink_ars = (fun ars -> ignore (timed s.sink_ars ars));
    sink_stats = s.sink_stats;
  }

type point = {
  result : Driver.t;
  setup_ns : int;
  stats : Machine.Stats.t;
  perf : Simrt.Perfctr.t;
  minor : int;
  major : int;
}

let run_point rec_ ~req ~check ~acc (cfg : Config.t) workload =
  let sp name f = Spans.span rec_ ~req name f in
  let q = Option.get cfg.Config.openloop and cores = cfg.Config.cores in
  let t0 = Spans.now () in
  let streamer =
    if check then
      let static_gate = sp "staticcheck.gate_create" (fun () -> Run.static_gate_of_config cfg) in
      Some (sp "check.stream_create" (fun () -> Check.Stream.create ~static_gate ~cores ()))
    else None
  in
  let collector =
    Option.map
      (fun str ->
        let sink = Check.Stream.sink str in
        Check.Collector.create_streaming ~cores
          (match acc with Some acc -> timed_sink acc sink | None -> sink))
      streamer
  in
  let engine = sp "engine.create" (fun () -> Machine.Engine.create ?check:collector cfg workload) in
  let setup_ns = Spans.now () - t0 in
  let sink0, calls0 = match acc with Some a -> (a.sink_ns, a.sink_calls) | None -> (0, 0) in
  let stats, minor, major =
    gc_delta (fun () ->
        sp "engine.run" (fun () ->
            let stats = Machine.Engine.run engine in
            Option.iter
              (fun a ->
                Spans.aggregate rec_ ~req "check.sink" ~ns:(a.sink_ns - sink0)
                  ~calls:(a.sink_calls - calls0) ~until:(Spans.now ()))
              acc;
            stats))
  in
  let oracle_ok =
    match streamer with
    | None -> true
    | Some str ->
        sp "check.finish" (fun () ->
            let final = Mem.Store.snapshot (Machine.Engine.store engine) in
            Check.Verdict.ok (Check.Verdict.of_stream str ~final))
  in
  let perf = Machine.Engine.perfctr engine in
  let oq = Option.get (Machine.Engine.openq engine) in
  let sojourn, wait =
    sp "openloop.fold" (fun () ->
        ( Report.Percentile.of_samples (Machine.Openq.sojourns oq),
          Report.Percentile.of_samples (Machine.Openq.waits oq) ))
  in
  let result =
    {
      Driver.workload = workload.Machine.Workload.name;
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
      sojourn;
      wait;
      checked = check;
      stream = check;
      oracle_ok;
      events = perf.Simrt.Perfctr.events_popped;
      check_live_lines = perf.Simrt.Perfctr.check_live_lines;
      check_retired = perf.Simrt.Perfctr.check_retired;
    }
  in
  { result; setup_ns; stats; perf; minor; major }

let check_fields = [ "checked"; "stream"; "oracle_ok"; "check_live_lines"; "check_retired" ]

(* The point JSON minus the checker's own fields: what checked must share
   with serve. *)
let stripped d =
  match Driver.to_json d with
  | Report.Json.Obj fields ->
      Report.Json.Obj (List.filter (fun (k, _) -> not (List.mem k check_fields)) fields)
  | j -> j

let open_unit rec_ ~size ~seed ~check ~traced =
  let t_setup = Spans.now () in
  let workload = Spans.span rec_ "openloop.workload" open_workload in
  let acc =
    if traced && check then
      Some { sink_ns = 0; sink_calls = 0; commit_ns = 0; commit_calls = 0; lock_ns = 0; lock_calls = 0 }
    else None
  in
  let setup_ns = ref (Spans.now () - t_setup) in
  let points =
    List.mapi
      (fun req cfg ->
        let p =
          Spans.span rec_ ~req "openloop.point" (fun () -> run_point rec_ ~req ~check ~acc cfg workload)
        in
        setup_ns := !setup_ns + p.setup_ns;
        p)
      (open_points size seed)
  in
  let end_ns = Spans.now () in
  (* A point fails on a bad verdict, on lost requests, or (quick size) when
     the replica disagrees with the real Openloop.Driver.run_point. *)
  let problems =
    List.map2
      (fun p cfg ->
        let d = p.result in
        let where = Printf.sprintf "%s point at %.0f req/kcycle" d.Driver.preset d.Driver.rate in
        (if d.Driver.oracle_ok then [] else [ where ^ ": oracle verdict not ok" ])
        @ (if d.Driver.completed = d.Driver.requests then []
           else [ Printf.sprintf "%s: %d of %d requests completed" where d.Driver.completed d.Driver.requests ])
        @
        if size <> Quick then []
        else
          let real = Driver.run_point ~check ~stream:check cfg workload in
          if Report.Json.to_string (Driver.to_json real) = Report.Json.to_string (Driver.to_json d) then []
          else [ where ^ ": replica disagrees with Openloop.Driver.run_point" ])
      points (open_points size seed)
  in
  let digest =
    digest_of (String.concat "\n" (List.map (fun p -> Report.Json.to_string (stripped p.result)) points))
  in
  let layer =
    if not traced then []
    else
      let spans = rec_.Spans.spans in
      let sum f = List.fold_left (fun acc p -> acc + f p) 0 points in
      let perf = Simrt.Perfctr.create () in
      List.iter (fun p -> Simrt.Perfctr.merge_into ~dst:perf p.perf) points;
      let sojourn i pick =
        match (List.nth points i).result.Driver.sojourn with
        | Some p -> float_of_int (pick p)
        | None -> 0.0
      in
      let per_call ns calls = if calls = 0 then 0.0 else float_of_int ns /. float_of_int calls in
      [
        ("engine.create_s", s_of_ns (Spans.total_ns "engine.create" spans));
        ("gc.minor_collections", float_of_int (sum (fun p -> p.minor)));
        ("gc.major_collections", float_of_int (sum (fun p -> p.major)));
        ("gc.top_heap_mb", top_heap_mb ());
        ("staticcheck.gate_create_s", s_of_ns (Spans.total_ns "staticcheck.gate_create" spans));
        ("openloop.fold_s", s_of_ns (Spans.total_ns "openloop.fold" spans));
        ("check.finish_s", s_of_ns (Spans.total_ns "check.finish" spans));
        ("check.peak_live_lines", float_of_int perf.Simrt.Perfctr.check_live_lines);
        ("check.retired", float_of_int perf.Simrt.Perfctr.check_retired);
        ("sim.sojourn_p50_cycles_B", sojourn 0 (fun p -> p.Report.Percentile.p50));
        ("sim.sojourn_p99_cycles_B", sojourn 0 (fun p -> p.Report.Percentile.p99));
        ("sim.sojourn_p50_cycles_C", sojourn 1 (fun p -> p.Report.Percentile.p50));
        ("sim.sojourn_p99_cycles_C", sojourn 1 (fun p -> p.Report.Percentile.p99));
      ]
      @ (match acc with
        | None -> []
        | Some a ->
            [
              ("check.sink_s", s_of_ns a.sink_ns);
              ("check.commit_calls", float_of_int a.commit_calls);
              ("check.commit_ns", per_call a.commit_ns a.commit_calls);
              ("check.lock_event_calls", float_of_int a.lock_calls);
              ("check.lock_event_ns", per_call a.lock_ns a.lock_calls);
            ])
      @ perf_layer perf ~run_self_ns:(Spans.total_self_ns "engine.run" spans)
      @ sim_layer (List.map (fun p -> p.stats) points)
  in
  {
    setup_ns = !setup_ns;
    end_ns;
    sims = List.length points;
    requests = List.fold_left (fun acc p -> acc + p.result.Driver.completed) 0 points;
    failed = List.length (List.filter (( <> ) []) problems);
    reasons = List.concat problems;
    digests = [ ("unit", digest) ];
    layer;
    spans = (if traced then rec_.Spans.spans else []);
  }

(* ------------------------------------------------------------------ *)

let run_sweep rec_ ~size ~seed ~traced =
  let jobs = Domain.recommended_domain_count () in
  let sims = sweep_sims size in
  let opts = sweep_options seed in
  let requests = sims * opts.Experiments.cores * opts.Experiments.ops_per_thread in
  if traced then
    let setup_ns, end_ns, main, serial, layer, spans = sweep_traced rec_ ~size ~seed ~jobs in
    let d = digest_of main.text and d1 = digest_of serial.text in
    {
      setup_ns;
      end_ns;
      sims;
      requests;
      failed = (if d = d1 then 0 else sims);
      reasons = (if d = d1 then [] else [ "sweep digest differs between jobs=1 and jobs=" ^ string_of_int jobs ]);
      digests = [ ("unit", d); ("jobs1", d1) ];
      layer;
      spans;
    }
  else
    let setup_ns, d = sweep_untraced ~size ~seed ~jobs in
    {
      setup_ns;
      end_ns = Spans.now ();
      sims;
      requests;
      failed = 0;
      reasons = [];
      digests = [ ("unit", d) ];
      layer = [];
      spans = [];
    }

let peak_rss_mb () =
  let from_status s =
    List.find_map
      (fun line ->
        match String.split_on_char ':' line with
        | [ "VmHWM"; v ] -> (
            match String.split_on_char ' ' (String.trim v) with
            | kb :: _ -> Option.map (fun kb -> float_of_int kb /. 1024.0) (int_of_string_opt kb)
            | [] -> None)
        | _ -> None)
      (String.split_on_char '\n' s)
  in
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | s -> Option.value (from_status s) ~default:(top_heap_mb ())
  | exception Sys_error _ -> top_heap_mb ()

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* [spawn_ns] is the parent's clock reading just before it started this
   process, so set-up includes exec and module initialisation. *)
let main ~workload ~seed ~size ~spawn_ns ~traced =
  let t_main = Spans.now () in
  let rec_ = Spans.create () in
  let ops = expected_ops size workload in
  let quick = size = Quick in
  match
    match workload with
    | "sweep" -> run_sweep rec_ ~size ~seed ~traced
    | "serve" -> open_unit rec_ ~size ~seed ~check:false ~traced
    | "checked" -> open_unit rec_ ~size ~seed ~check:true ~traced
    | w -> invalid_arg ("unknown workload " ^ w)
  with
  | exception e ->
      Printf.printf "ops %d %d\nx %s\n" ops ops (Printexc.to_string e);
      exit 0
  | o ->
      let cpu = cpu_s () and rss = peak_rss_mb () in
      let failed, reasons =
        match (Pins.digest ~quick workload, o.digests) with
        | Some pin, ("unit", d) :: _ when seed = Pins.seed && d <> pin ->
            (ops, [ Printf.sprintf "%s digest %s differs from the pin %s" workload d pin ])
        | _ -> (o.failed, o.reasons)
      in
      let m name v = Printf.printf "m %s %.17g\n" name v in
      m "setup_s" (s_of_ns (t_main - spawn_ns + o.setup_ns));
      m "total_s" (s_of_ns (o.end_ns - spawn_ns));
      m "cpu_s" cpu;
      m "peak_rss_mb" rss;
      m "sims" (float_of_int o.sims);
      m "requests" (float_of_int o.requests);
      List.iter (fun (k, v) -> m k v) o.layer;
      List.iter (fun (k, d) -> Printf.printf "d %s %s\n" k d) o.digests;
      Printf.printf "ops %d %d\n" ops failed;
      List.iter (fun r -> Printf.printf "x %s\n" r) reasons;
      List.iter
        (fun s -> Printf.printf "e %s\n" (Spans.chrome_event ~pid:(Unix.getpid ()) ~origin:spawn_ns s))
        o.spans;
      exit 0
