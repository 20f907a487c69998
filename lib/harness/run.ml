module Stats = Machine.Stats
module Summary = Simrt.Summary

type t = {
  workload : string;
  preset : string;
  retries : int;
  cycles : float;
  energy : float;
  aborts_per_commit : float;
  discovery_fraction : float;
  abort_categories : (Machine.Abort.category * float) list;
  commit_mode_fractions : (Machine.Stats.commit_mode * float) list;
  first_try_ratio : float;
  single_retry_ratio : float;
  fallback_ratio : float;
  retry_breakdown : float * float * float;
  fig1_ratio : float;
}

type sim = { cfg : Machine.Config.t; workload : Machine.Workload.t; seed : int }

let sims cfg workload ~seeds = List.map (fun seed -> { cfg; workload; seed }) seeds

let run_sim { cfg; workload; seed } =
  Machine.Engine.run_workload (Machine.Config.with_seed cfg seed) workload

exception Check_failed of string

(* The static verifier's view of the run's table geometry; every checked
   simulation also asserts dynamic-footprint ⊆ static-may-set and
   dynamic-decision ∈ static-envelope (DESIGN.md §10). *)
let static_gate_of_config (cfg : Machine.Config.t) =
  Staticcheck.Gate.create
    (Staticcheck.Predict.params_of ~alt_capacity:cfg.Machine.Config.alt_capacity
       ~sq_entries:cfg.sq_entries ~rob_entries:cfg.rob_entries ~crt_entries:cfg.crt_entries
       ~crt_ways:cfg.crt_ways cfg.mem_params)

(* The collector forwards every emission into the online oracles and
   retains nothing (DESIGN.md §14). *)
let checked_engine cfg workload =
  let cores = cfg.Machine.Config.cores in
  let str = Check.Stream.create ~static_gate:(static_gate_of_config cfg) ~cores () in
  let collector = Check.Collector.create_streaming ~cores (Check.Stream.sink str) in
  let engine = Machine.Engine.create ~check:collector cfg workload in
  let verdict () = Check.Verdict.of_stream str ~final:(Mem.Store.snapshot (Machine.Engine.store engine)) in
  (engine, verdict)

let run_sim_checked { cfg; workload; seed } =
  let engine, verdict = checked_engine (Machine.Config.with_seed cfg seed) workload in
  let stats = Machine.Engine.run engine in
  let verdict = verdict () in
  Machine.Engine.release engine;
  (stats, verdict)

(* Pool-friendly variant: same signature as [run_sim], turns a failed verdict
   into an exception (which [Simrt.Pool.parallel_map] propagates to the
   submitting domain). *)
let run_sim_enforce sim =
  let stats, verdict = run_sim_checked sim in
  if Check.Verdict.ok verdict then stats
  else
    raise
      (Check_failed
         (Printf.sprintf "%s preset %s seed %d:\n%s" sim.workload.Machine.Workload.name
            (Machine.Config.preset_letter sim.cfg) sim.seed
            (Check.Verdict.to_string verdict)))

let runner ~check = if check then run_sim_enforce else run_sim

let tmean ~trim xs = Summary.trimmed_mean ~trim xs

(* Aggregate the per-seed runs of one (config, workload) pair. The seed order
   of [runs] is part of the result: trimmed means are computed over the list
   as given, so the caller must keep runs in the seed-list order for results
   to be reproducible across job counts. *)
let of_stats (cfg : Machine.Config.t) (workload : Machine.Workload.t) ~trim runs =
  let over f = tmean ~trim (List.map f runs) in
  let cycles = over (fun s -> float_of_int (Stats.total_cycles s)) in
  let energy =
    tmean ~trim
      (List.map
         (fun s ->
           Energy.Model.total Energy.Model.default ~cores:cfg.cores ~cycles:(Stats.total_cycles s)
             (Stats.counters s))
         runs)
  in
  let abort_categories =
    List.map
      (fun cat ->
        ( cat,
          over (fun s ->
              let commits = max 1 (Stats.commits s) in
              float_of_int (Stats.aborts_in_category s cat) /. float_of_int commits) ))
      Machine.Abort.all_categories
  in
  let commit_mode_fractions =
    List.map
      (fun mode ->
        ( mode,
          over (fun s ->
              let commits = max 1 (Stats.commits s) in
              float_of_int (Stats.commits_in_mode s mode) /. float_of_int commits) ))
      Machine.Stats.all_commit_modes
  in
  let breakdown =
    let b1 = over (fun s -> let a, _, _ = Stats.retry_breakdown s in a) in
    let bn = over (fun s -> let _, b, _ = Stats.retry_breakdown s in b) in
    let bf = over (fun s -> let _, _, c = Stats.retry_breakdown s in c) in
    (b1, bn, bf)
  in
  {
    workload = workload.Machine.Workload.name;
    preset = Machine.Config.preset_letter cfg;
    retries = cfg.max_retries;
    cycles;
    energy;
    aborts_per_commit = over Stats.aborts_per_commit;
    discovery_fraction =
      over (fun s ->
          let total = max 1 (Stats.total_cycles s) * cfg.cores in
          float_of_int (Stats.failed_discovery_cycles s) /. float_of_int total);
    abort_categories;
    commit_mode_fractions;
    first_try_ratio = over Stats.first_try_ratio;
    single_retry_ratio = over Stats.single_retry_ratio;
    fallback_ratio = over Stats.fallback_ratio;
    retry_breakdown = breakdown;
    fig1_ratio = over Stats.fig1_ratio;
  }

let best = function
  | [] -> invalid_arg "Run.best: empty candidate list"
  | hd :: tl -> List.fold_left (fun best m -> if m.cycles < best.cycles then m else best) hd tl

let measure ?(jobs = 1) ?(check = false) (cfg : Machine.Config.t)
    (workload : Machine.Workload.t) ~seeds ~trim =
  let runs = Simrt.Pool.parallel_map ~jobs (runner ~check) (sims cfg workload ~seeds) in
  of_stats cfg workload ~trim runs

let measure_best_retries ?(jobs = 1) ?(check = false) cfg workload ~seeds ~trim ~retry_choices =
  match retry_choices with
  | [] -> invalid_arg "measure_best_retries: empty retry_choices"
  | choices ->
      let tasks =
        List.concat_map
          (fun n -> sims (Machine.Config.with_retries cfg n) workload ~seeds)
          choices
      in
      let results = Array.of_list (Simrt.Pool.parallel_map ~jobs (runner ~check) tasks) in
      let per_seed = List.length seeds in
      let candidates =
        List.mapi
          (fun i n ->
            let runs = List.init per_seed (fun j -> results.((i * per_seed) + j)) in
            of_stats (Machine.Config.with_retries cfg n) workload ~trim runs)
          choices
      in
      best candidates
