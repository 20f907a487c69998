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
  abort_categories : (Check.Abort.category * float) list;
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

(* The static verifier's view of the run's machine; every checked
   simulation also asserts dynamic-footprint ⊆ static-may-set and
   dynamic-decision ∈ static-envelope (DESIGN.md §10). *)
let predict_params (cfg : Machine.Config.t) =
  Staticcheck.Predict.params_of ~sq_entries:Machine.Config.sq_entries
    ~rob_entries:cfg.Machine.Config.rob_entries cfg.mem_params

let static_gate_of_config cfg = Staticcheck.Gate.create (predict_params cfg)

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

(* Turns a failed verdict into an exception, which the pool re-raises on
   the submitting domain. *)
let run_sim_enforce sim =
  let stats, verdict = run_sim_checked sim in
  if Check.Verdict.ok verdict then stats
  else
    raise
      (Check_failed
         (Printf.sprintf "%s preset %s seed %d:\n%s" sim.workload.Machine.Workload.name
            (Machine.Config.preset_letter sim.cfg) sim.seed
            (Check.Verdict.to_string verdict)))

(* The harness's only call to the pool. With [cache] each simulation is one
   [Suite_cache] shard; hits are spliced back in task order, so a partially
   cached batch returns exactly what an uncached one does. A checked batch
   bypasses the cache in both directions: a hit would skip the oracle, and a
   checked result is no more reusable than an unchecked one. *)
let batch ?(jobs = 1) ?(check = false) ?(cache = false) ?(progress = ignore) sims =
  let cache = cache && not check in
  if cache then Suite_cache.prune_stale ();
  let cached =
    List.map
      (fun s ->
        if cache then
          Suite_cache.load_shard s.cfg ~workload:s.workload.Machine.Workload.name ~seed:s.seed
        else None)
      sims
  in
  let misses =
    List.filter_map
      (fun (s, c) -> if Option.is_none c then Some s else None)
      (List.combine sims cached)
  in
  let hits = List.length sims - List.length misses in
  if hits > 0 then
    progress (Printf.sprintf "cache: %d/%d shard(s) hit" hits (List.length sims));
  let fresh = Simrt.Pool.parallel_map ~jobs (if check then run_sim_enforce else run_sim) misses in
  if cache then
    List.iter2
      (fun s stats ->
        Suite_cache.save_shard s.cfg ~workload:s.workload.Machine.Workload.name ~seed:s.seed stats)
      misses fresh;
  let rec splice cached fresh =
    match (cached, fresh) with
    | [], _ -> []
    | Some s :: cached, fresh | None :: cached, s :: fresh -> s :: splice cached fresh
    | None :: _, [] -> assert false
  in
  splice cached fresh

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
      Check.Abort.all_categories
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

(* [xs] cut after its first [n] elements. *)
let rec split_at n xs =
  match xs with
  | x :: tl when n > 0 ->
      let front, back = split_at (n - 1) tl in
      (x :: front, back)
  | _ -> ([], xs)

let best_of_retries ?jobs ?check ?cache ?progress ?retry_choices ~seeds ~trim pairs =
  let cells =
    List.map
      (fun ((cfg : Machine.Config.t), w) ->
        match retry_choices with
        | None -> ([ cfg ], w)
        | Some ns -> (List.map (Machine.Config.with_retries cfg) ns, w))
      pairs
  in
  let runs =
    batch ?jobs ?check ?cache ?progress
      (List.concat_map (fun (cfgs, w) -> List.concat_map (fun cfg -> sims cfg w ~seeds) cfgs) cells)
  in
  let per_seed = List.length seeds in
  let of_chunk w runs cfg =
    let mine, rest = split_at per_seed runs in
    (rest, of_stats cfg w ~trim mine)
  in
  snd
    (List.fold_left_map
       (fun runs (cfgs, w) ->
         let runs, candidates = List.fold_left_map (of_chunk w) runs cfgs in
         (runs, best candidates))
       runs cells)
