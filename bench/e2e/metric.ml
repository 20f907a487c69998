(* Every metric the benchmark emits. BENCHMARK.json lists the same names;
   [--quick] fails when the two drift apart. README.md explains each one. *)

type better = Lower | Higher

(* How one measurement folds its runs into one value. Slowdowns on a shared
   host are one-sided (episodes of seconds to minutes that only add time),
   so host time is best-of-N; set-up and memory are medians. *)
type stat = Best | Median

(* Regression bounds live in BENCHMARK.json only. A per-layer metric names
   the workloads whose runs exercise its layer; on the others it has no
   value. *)
type kind = End_to_end of stat | Per_layer of string list

type t = { name : string; unit_ : string; better : better; kind : kind }

let e2e name unit_ better stat = { name; unit_; better; kind = End_to_end stat }

let layer name unit_ better workloads = { name; unit_; better; kind = Per_layer workloads }

let workloads = [ "sweep"; "serve"; "checked" ]

let sweep_only = [ "sweep" ]

let open_loop = [ "serve"; "checked" ]

let checked_only = [ "checked" ]

let end_to_end =
  [
    e2e "setup_s" "s" Lower Median;
    e2e "sims_per_s" "1/s" Higher Best;
    e2e "requests_per_s" "1/s" Higher Best;
    e2e "cpu_s" "s" Lower Best;
    e2e "peak_rss_mb" "MiB" Lower Median;
  ]

let per_layer =
  [
    layer "harness.aggregate_s" "s" Lower sweep_only;
    layer "report.render_s" "s" Lower sweep_only;
    layer "pool.jobs" "count" Higher sweep_only;
    layer "pool.busy_frac" "frac" Higher sweep_only;
    layer "pool.tail_s" "s" Lower sweep_only;
    layer "pool.task_p50_ms" "ms" Lower sweep_only;
    layer "pool.task_p95_ms" "ms" Lower sweep_only;
    layer "pool.speedup" "x" Higher sweep_only;
    layer "engine.create_s" "s" Lower workloads;
    layer "engine.run_self_s" "s" Lower workloads;
    layer "engine.events" "count" Lower workloads;
    layer "engine.ns_per_event" "ns" Lower workloads;
    layer "perfctr.conflict_checks" "count" Lower workloads;
    layer "perfctr.conflict_hits" "count" Lower workloads;
    layer "perfctr.aborts" "count" Lower workloads;
    layer "perfctr.commits" "count" Higher workloads;
    layer "perfctr.footprint_inserts" "count" Lower workloads;
    layer "perfctr.store_forward_scans" "count" Lower workloads;
    layer "gc.alloc_words_per_event" "words" Lower workloads;
    layer "gc.minor_collections" "count" Lower workloads;
    layer "gc.major_collections" "count" Lower workloads;
    layer "gc.top_heap_mb" "MiB" Lower workloads;
    layer "check.sink_s" "s" Lower checked_only;
    layer "check.commit_calls" "count" Lower checked_only;
    layer "check.commit_ns" "ns" Lower checked_only;
    layer "check.lock_event_calls" "count" Lower checked_only;
    layer "check.lock_event_ns" "ns" Lower checked_only;
    layer "check.finish_s" "s" Lower checked_only;
    layer "check.peak_live_lines" "count" Lower checked_only;
    layer "check.retired" "count" Higher checked_only;
    layer "check.capture_s" "s" Lower checked_only;
    layer "check.overhead_x" "x" Lower checked_only;
    layer "check.rss_delta_mb" "MiB" Lower checked_only;
    layer "staticcheck.gate_create_s" "s" Lower checked_only;
    layer "openloop.fold_s" "s" Lower open_loop;
    layer "kernel.mem.hierarchy.read_hot_ns" "ns" Lower workloads;
    layer "kernel.mem.hierarchy.write_pingpong_ns" "ns" Lower workloads;
    layer "kernel.mem.hierarchy.read_cold_ns" "ns" Lower workloads;
    layer "kernel.machine.conflict_map.probe_ns" "ns" Lower workloads;
    layer "kernel.clear.alt.record_ns" "ns" Lower workloads;
    layer "kernel.clear.ert.lookup_ns" "ns" Lower workloads;
    layer "kernel.simrt.event_queue.push_pop_ns" "ns" Lower workloads;
    layer "kernel.mem.store.rw_ns" "ns" Lower workloads;
    layer "kernel.machine.txn.access_ns" "ns" Lower workloads;
    layer "trace.overhead_frac" "frac" Lower workloads;
    layer "sim.total_cycles" "cycles" Lower workloads;
    layer "sim.commits" "count" Higher workloads;
    layer "sim.aborts_per_commit" "ratio" Lower workloads;
    layer "sim.single_retry_frac" "frac" Higher workloads;
    layer "sim.fallback_frac" "frac" Lower workloads;
    layer "sim.l3_hits" "count" Lower workloads;
    layer "sim.mem_accesses" "count" Lower workloads;
    layer "sim.sojourn_p50_cycles_B" "cycles" Lower open_loop;
    layer "sim.sojourn_p99_cycles_B" "cycles" Lower open_loop;
    layer "sim.sojourn_p50_cycles_C" "cycles" Lower open_loop;
    layer "sim.sojourn_p99_cycles_C" "cycles" Lower open_loop;
    layer "sim.fig1_ratio_mean" "frac" Higher sweep_only;
  ]

let metrics = end_to_end @ per_layer

let find name = List.find (fun m -> m.name = name) metrics

let exercised m workload = match m.kind with End_to_end _ -> true | Per_layer ws -> List.mem workload ws

let valid_name name =
  name <> ""
  && String.for_all
       (function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false)
       name

(* Quartiles as Python's [statistics.quantiles(values, n=4)] gives them
   (the default "exclusive" method), so the numbers printed here match the
   ones a reader recomputes from the per-run values. *)
let quartiles values =
  let a = Array.of_list values in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then invalid_arg "Metric.quartiles: no values"
  else if n = 1 then (a.(0), a.(0), a.(0))
  else
    let q i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    let median =
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0
    in
    (q 1, median, q 3)

let median values =
  let _, m, _ = quartiles values in
  m

(* One measurement's value of [m] from its runs' values. *)
let summarize m values =
  match (m.kind, m.better) with
  | End_to_end Best, Lower -> List.fold_left Float.min Float.infinity values
  | End_to_end Best, Higher -> List.fold_left Float.max Float.neg_infinity values
  | (End_to_end Median | Per_layer _), _ -> median values
