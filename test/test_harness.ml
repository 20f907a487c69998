(* Tests for the experiment harness: measurements, retry sweeps and figure
   table generation on a miniature suite. *)

module Run = Clear_repro.Run
module Experiments = Clear_repro.Experiments
module Config = Machine.Config
module Table = Report.Table

let micro_options =
  {
    Experiments.cores = 4;
    ops_per_thread = 30;
    seeds = [ 3; 5 ];
    trim = 0;
    retry_choices = [ 4 ];
    sched = Sched.Profile.symmetric;
  }

let micro_workloads = [ Workloads.Arrayswap.workload; Workloads.Bitcoin.workload ]

let suite = lazy (Experiments.run_suite ~workloads:micro_workloads micro_options)

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

(* One measurement through [Run.best_of_retries] (and so one [Run.batch]). *)
let measure ?jobs ?retry_choices cfg w ~seeds =
  match Run.best_of_retries ?jobs ?retry_choices ~seeds ~trim:0 [ (cfg, w) ] with
  | [ m ] -> m
  | ms -> Alcotest.failf "one pair measured %d times" (List.length ms)

let test_measure_basics () =
  let cfg = Experiments.config_of_letter micro_options "B" in
  let m = measure cfg Workloads.Arrayswap.workload ~seeds:[ 1; 2 ] in
  Alcotest.(check string) "preset letter" "B" m.Run.preset;
  Alcotest.(check string) "workload name" "arrayswap" m.Run.workload;
  Alcotest.(check int) "own retry limit" cfg.Config.max_retries m.Run.retries;
  Alcotest.(check bool) "cycles positive" true (m.Run.cycles > 0.0);
  Alcotest.(check bool) "energy positive" true (m.Run.energy > 0.0);
  Alcotest.(check bool) "fractions bounded" true
    (List.for_all (fun (_, v) -> v >= 0.0 && v <= 1.0) m.Run.commit_mode_fractions)

let test_measure_deterministic () =
  let cfg = Experiments.config_of_letter micro_options "W" in
  let m1 = measure cfg Workloads.Bitcoin.workload ~seeds:[ 1 ] in
  let m2 = measure cfg Workloads.Bitcoin.workload ~seeds:[ 1 ] in
  Alcotest.(check (float 1e-9)) "same cycles" m1.Run.cycles m2.Run.cycles;
  Alcotest.(check bool) "same measurement" true (m1 = m2)

(* The best over retry choices is the minimum of the per-choice
   measurements, and a batch of several pairs measures each in order. *)
let test_best_retries_picks_minimum () =
  let cfg = Experiments.config_of_letter micro_options "B" in
  let w = Workloads.Arrayswap.workload in
  let best = measure ~retry_choices:[ 1; 8 ] cfg w ~seeds:[ 1 ] in
  match
    Run.best_of_retries ~seeds:[ 1 ] ~trim:0
      [ (Config.with_retries cfg 1, w); (Config.with_retries cfg 8, w) ]
  with
  | [ m1; m8 ] ->
      Alcotest.(check int) "pair order kept" 1 m1.Run.retries;
      Alcotest.(check (float 1e-9)) "best is the min" (min m1.Run.cycles m8.Run.cycles)
        best.Run.cycles;
      Alcotest.(check bool) "best is one of the candidates" true (best = m1 || best = m8)
  | _ -> Alcotest.fail "expected two measurements"

let test_config_of_letter () =
  Alcotest.(check bool) "B has clear off" false
    (Experiments.config_of_letter micro_options "B").Config.clear_enabled;
  Alcotest.(check bool) "W has clear on" true
    (Experiments.config_of_letter micro_options "W").Config.clear_enabled;
  Alcotest.(check int) "cores applied" 4 (Experiments.config_of_letter micro_options "C").Config.cores;
  Alcotest.check_raises "unknown letter" (Invalid_argument "config_of_letter: unknown preset X")
    (fun () -> ignore (Experiments.config_of_letter micro_options "X"))

(* The tentpole guarantee: the parallel sweep is bit-identical to the
   sequential one. Run.t contains only strings, ints, floats and variant
   lists, so structural equality is exact (floats must match to the last
   bit, not within a tolerance). *)
let test_suite_parallel_identical () =
  let seq = Experiments.run_suite ~jobs:1 ~workloads:micro_workloads micro_options in
  let par = Experiments.run_suite ~jobs:4 ~workloads:micro_workloads micro_options in
  Alcotest.(check bool) "jobs:4 suite equals jobs:1 suite" true
    (seq.Experiments.rows = par.Experiments.rows);
  List.iter2
    (fun (wname, per_seq) (wname', per_par) ->
      Alcotest.(check string) "same workload order" wname wname';
      List.iter2
        (fun (l, (a : Run.t)) (l', (b : Run.t)) ->
          Alcotest.(check string) "same preset order" l l';
          Alcotest.(check (float 0.0)) (wname ^ "/" ^ l ^ " cycles") a.Run.cycles b.Run.cycles;
          Alcotest.(check (float 0.0)) (wname ^ "/" ^ l ^ " energy") a.Run.energy b.Run.energy;
          Alcotest.(check int) (wname ^ "/" ^ l ^ " retries") a.Run.retries b.Run.retries)
        per_seq per_par)
    seq.Experiments.rows par.Experiments.rows

let test_measure_parallel_identical () =
  let cfg = Experiments.config_of_letter micro_options "W" in
  let at jobs =
    measure ~jobs ~retry_choices:[ 2; 5 ] cfg Workloads.Bitcoin.workload ~seeds:[ 1; 2; 3 ]
  in
  Alcotest.(check bool) "best_of_retries jobs-invariant" true (at 1 = at 3)

(* Ablation and SLE each make one batch call, so they inherit its job-count
   invariance; tables hold only strings, so structural equality is exact. *)
let test_ablation_parallel_identical () =
  Alcotest.(check bool) "ablation jobs:3 == jobs:1" true
    (Experiments.ablation ~jobs:1 micro_options = Experiments.ablation ~jobs:3 micro_options)

let test_sle_parallel_identical () =
  Alcotest.(check bool) "sle jobs:3 == jobs:1" true
    (Experiments.sle ~jobs:1 micro_options = Experiments.sle ~jobs:3 micro_options)

let test_suite_shape () =
  let s = Lazy.force suite in
  Alcotest.(check int) "two workloads" 2 (List.length s.Experiments.rows);
  List.iter
    (fun (_, per) -> Alcotest.(check int) "four presets" 4 (List.length per))
    s.Experiments.rows

(* Exact text of every suite-derived table, pinned by digest over three
   workloads: a two-value float sum is the same in either order, so only a
   closing row over three or more values can depend on its fold order. *)
let trio_suite =
  lazy
    (Experiments.run_suite
       ~workloads:(micro_workloads @ [ Workloads.Bst.workload ])
       micro_options)

let golden_figures =
  [
    ("fig1", Experiments.fig1, "189042f06f199eec8f58ad8400b25517");
    ("fig8", Experiments.fig8, "2069b3f1ef2bb8fccf68506d0181d8be");
    ("fig8_discovery", Experiments.fig8_discovery, "b2d547ff29f52cc30099c22e5f3fa4db");
    ("fig9", Experiments.fig9, "beee92f8bedb765af7eade195ee0b23c");
    ("fig10", Experiments.fig10, "c6f113c7c0b95c44ebc8150e0b6c8cef");
    ("fig11", Experiments.fig11, "7150259ce15b07c45b05087a5771ac4e");
    ("fig12", Experiments.fig12, "c9a977e3484369e9fe26e764b2a8b91a");
    ("fig13", Experiments.fig13, "95c32fc9e864b418ead26b48af1a82ac");
    ("headline", Experiments.headline, "9cfec6a98a33716c2e8c4bf318a0524c");
  ]

let test_figures_render () =
  let s = Lazy.force trio_suite in
  List.iter
    (fun (name, fig, golden) ->
      let text = Table.to_string (fig s) in
      let digest = Digest.to_hex (Digest.string text) in
      if digest <> golden then print_string text;
      Alcotest.(check string) (name ^ " text digest") golden digest)
    golden_figures

let test_fig8_baseline_normalised_to_one () =
  let s = Lazy.force suite in
  let str = Table.to_string (Experiments.fig8 s) in
  Alcotest.(check bool) "B column is 1.000" true (contains str "1.000")

let test_table1_rows () =
  let str = Table.to_string (Experiments.table1 ()) in
  List.iter
    (fun name -> Alcotest.(check bool) (name ^ " listed") true (contains str name))
    Workloads.Registry.names

let test_table2_mentions_htm () =
  let str = Table.to_string (Experiments.table2 micro_options) in
  Alcotest.(check bool) "mentions HTM" true (contains str "HTM");
  Alcotest.(check bool) "mentions MESI" true (contains str "MESI")

(* ------------------------------------------------------------------ *)
(* Per-simulation shard cache *)

module Suite_cache = Clear_repro.Suite_cache

let test_shard_roundtrip () =
  ignore (Suite_cache.clear ());
  let cfg = Experiments.config_of_letter micro_options "C" in
  let w = Workloads.Arrayswap.workload in
  let name = w.Machine.Workload.name in
  let stats = Run.run_sim { Run.cfg; workload = w; seed = 9 } in
  Alcotest.(check bool) "miss before save" true
    (Suite_cache.load_shard cfg ~workload:name ~seed:9 = None);
  Suite_cache.save_shard cfg ~workload:name ~seed:9 stats;
  (match Suite_cache.load_shard cfg ~workload:name ~seed:9 with
  | None -> Alcotest.fail "hit expected after save"
  | Some s ->
      Alcotest.(check int) "cycles preserved" (Machine.Stats.total_cycles stats)
        (Machine.Stats.total_cycles s);
      Alcotest.(check int) "commits preserved" (Machine.Stats.commits stats)
        (Machine.Stats.commits s));
  (* the key is the full (config, workload, seed) triple *)
  Alcotest.(check bool) "other seed misses" true
    (Suite_cache.load_shard cfg ~workload:name ~seed:10 = None);
  Alcotest.(check bool) "other workload misses" true
    (Suite_cache.load_shard cfg ~workload:"other" ~seed:9 = None);
  Alcotest.(check bool) "other config misses" true
    (Suite_cache.load_shard
       (Experiments.config_of_letter micro_options "B")
       ~workload:name ~seed:9
    = None);
  Alcotest.(check bool) "clear removes it" true (Suite_cache.clear () >= 1);
  Alcotest.(check bool) "miss after clear" true
    (Suite_cache.load_shard cfg ~workload:name ~seed:9 = None)

let test_shard_prune_stale () =
  ignore (Suite_cache.clear ());
  let cfg = Experiments.config_of_letter micro_options "B" in
  let w = Workloads.Arrayswap.workload in
  let name = w.Machine.Workload.name in
  Suite_cache.save_shard cfg ~workload:name ~seed:4 (Run.run_sim { Run.cfg; workload = w; seed = 4 });
  let stale = Filename.concat Suite_cache.dir "shard-deadbeef.bin" in
  Out_channel.with_open_bin stale (fun oc -> Marshal.to_channel oc "not-this-build" []);
  Suite_cache.prune_stale ();
  Alcotest.(check bool) "stale entry removed" false (Sys.file_exists stale);
  Alcotest.(check bool) "fresh shard kept" true
    (Suite_cache.load_shard cfg ~workload:name ~seed:4 <> None);
  ignore (Suite_cache.clear ())

(* Changing only the schedule profile must change the shard key: a shard
   written under the symmetric profile is invisible to a numa2x sweep and
   vice versa, while each profile still hits its own shards. *)
let test_shard_sched_keying () =
  ignore (Suite_cache.clear ());
  let cfg = Experiments.config_of_letter micro_options "C" in
  let cfg_numa = Config.with_sched cfg Sched.Scenarios.numa2x in
  let w = Workloads.Arrayswap.workload in
  let name = w.Machine.Workload.name in
  Suite_cache.save_shard cfg ~workload:name ~seed:9 (Run.run_sim { Run.cfg; workload = w; seed = 9 });
  Alcotest.(check bool) "numa2x misses symmetric shard" true
    (Suite_cache.load_shard cfg_numa ~workload:name ~seed:9 = None);
  Suite_cache.save_shard cfg_numa ~workload:name ~seed:9
    (Run.run_sim { Run.cfg = cfg_numa; workload = w; seed = 9 });
  Alcotest.(check bool) "numa2x shard hits" true
    (Suite_cache.load_shard cfg_numa ~workload:name ~seed:9 <> None);
  Alcotest.(check bool) "symmetric shard still hits" true
    (Suite_cache.load_shard cfg ~workload:name ~seed:9 <> None);
  ignore (Suite_cache.clear ())

(* Partial-hit splice across a sched-profile change: warm the cache with one
   workload under numa2x, then sweep both workloads under numa2x (half hit,
   half simulated, spliced in task order) — the result must be bit-identical
   to a cold uncached numa2x sweep. A symmetric sweep warmed first makes
   sure foreign-profile shards never leak into the splice. *)
let test_partial_hit_splice_sched () =
  ignore (Suite_cache.clear ());
  let numa_options = { micro_options with Experiments.sched = Sched.Scenarios.numa2x } in
  ignore (Experiments.run_suite ~cache:true ~workloads:micro_workloads micro_options);
  ignore
    (Experiments.run_suite ~cache:true ~workloads:[ Workloads.Arrayswap.workload ] numa_options);
  let messages = ref [] in
  let progress m = messages := m :: !messages in
  let warm =
    Experiments.run_suite ~cache:true ~workloads:micro_workloads ~progress numa_options
  in
  Alcotest.(check bool) "sweep was a partial hit" true
    (List.exists (fun m -> contains m "shard(s) hit") !messages);
  let cold = Experiments.run_suite ~workloads:micro_workloads numa_options in
  Alcotest.(check bool) "spliced sweep equals cold sweep" true
    (warm.Experiments.rows = cold.Experiments.rows);
  ignore (Suite_cache.clear ())

(* prune_stale also sweeps up legacy whole-suite entries and shards written
   by other builds, without touching fresh shards or unrelated files. *)
let test_prune_legacy_and_clear_scope () =
  ignore (Suite_cache.clear ());
  let cfg = Experiments.config_of_letter micro_options "B" in
  let w = Workloads.Arrayswap.workload in
  let name = w.Machine.Workload.name in
  Suite_cache.save_shard cfg ~workload:name ~seed:4 (Run.run_sim { Run.cfg; workload = w; seed = 4 });
  let legacy = Filename.concat Suite_cache.dir "suite-0123abcd.bin" in
  Out_channel.with_open_bin legacy (fun oc -> Marshal.to_channel oc "some-old-build" []);
  let stale = Filename.concat Suite_cache.dir "shard-cafebabe.bin" in
  Out_channel.with_open_bin stale (fun oc -> Marshal.to_channel oc "not-this-build" []);
  let unrelated = Filename.concat Suite_cache.dir "notes.txt" in
  Out_channel.with_open_bin unrelated (fun oc -> Out_channel.output_string oc "keep me");
  Suite_cache.prune_stale ();
  Alcotest.(check bool) "legacy suite entry pruned" false (Sys.file_exists legacy);
  Alcotest.(check bool) "stale shard pruned" false (Sys.file_exists stale);
  Alcotest.(check bool) "fresh shard survives prune" true
    (Suite_cache.load_shard cfg ~workload:name ~seed:4 <> None);
  Alcotest.(check bool) "unrelated file survives prune" true (Sys.file_exists unrelated);
  Alcotest.(check bool) "clear removes the fresh shard" true (Suite_cache.clear () >= 1);
  Alcotest.(check bool) "unrelated file survives clear" true (Sys.file_exists unrelated);
  Sys.remove unrelated

let test_suite_cached_identical () =
  ignore (Suite_cache.clear ());
  let messages = ref [] in
  let progress m = messages := m :: !messages in
  let s1 = Experiments.run_suite ~cache:true ~workloads:micro_workloads ~progress micro_options in
  let s2 = Experiments.run_suite ~cache:true ~workloads:micro_workloads ~progress micro_options in
  Alcotest.(check bool) "second sweep hit the cache" true
    (List.exists (fun m -> contains m "shard(s) hit") !messages);
  Alcotest.(check string) "warm sweep identical"
    (Table.to_string (Experiments.fig8 s1))
    (Table.to_string (Experiments.fig8 s2));
  let s3 = Experiments.run_suite ~workloads:micro_workloads micro_options in
  Alcotest.(check string) "identical to uncached sweep"
    (Table.to_string (Experiments.fig8 s1))
    (Table.to_string (Experiments.fig8 s3));
  ignore (Suite_cache.clear ())

(* The ablation goes through the same shard cache as the sweep: a warm run
   hits every shard and renders what cold and uncached runs render. *)
let test_ablation_cached_identical () =
  ignore (Suite_cache.clear ());
  let cold = Experiments.ablation ~cache:true micro_options in
  let messages = ref [] in
  let progress m = messages := m :: !messages in
  let warm = Experiments.ablation ~cache:true ~progress micro_options in
  Alcotest.(check (list string)) "warm ablation hit every shard" [ "cache: 30/30 shard(s) hit" ]
    !messages;
  Alcotest.(check bool) "warm equals cold" true (warm = cold);
  Alcotest.(check bool) "cached equals uncached" true (cold = Experiments.ablation micro_options);
  ignore (Suite_cache.clear ())

(* A checked sweep must run the oracle on every simulation, so it reads no
   shard even when the caller asks for the cache. *)
let test_checked_suite_skips_cache () =
  ignore (Suite_cache.clear ());
  ignore (Experiments.run_suite ~cache:true ~workloads:micro_workloads micro_options);
  let messages = ref [] in
  let progress m = messages := m :: !messages in
  ignore
    (Experiments.run_suite ~check:true ~cache:true ~workloads:micro_workloads ~progress
       micro_options);
  Alcotest.(check bool) "checked sweep read no shard" false
    (List.exists (fun m -> contains m "shard(s) hit") !messages);
  ignore (Suite_cache.clear ())

let () =
  Alcotest.run "harness"
    [
      ( "run",
        [
          Alcotest.test_case "measure basics" `Quick test_measure_basics;
          Alcotest.test_case "measure deterministic" `Quick test_measure_deterministic;
          Alcotest.test_case "best retries" `Quick test_best_retries_picks_minimum;
          Alcotest.test_case "config_of_letter" `Quick test_config_of_letter;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "suite jobs:4 == jobs:1" `Slow test_suite_parallel_identical;
          Alcotest.test_case "measure jobs:3 == jobs:1" `Slow test_measure_parallel_identical;
          Alcotest.test_case "ablation jobs:3 == jobs:1" `Slow test_ablation_parallel_identical;
          Alcotest.test_case "sle jobs:3 == jobs:1" `Slow test_sle_parallel_identical;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "suite shape" `Slow test_suite_shape;
          Alcotest.test_case "figures render" `Slow test_figures_render;
          Alcotest.test_case "fig8 normalised" `Slow test_fig8_baseline_normalised_to_one;
          Alcotest.test_case "table1 rows" `Quick test_table1_rows;
          Alcotest.test_case "table2 content" `Quick test_table2_mentions_htm;
        ] );
      ( "shard cache",
        [
          Alcotest.test_case "roundtrip + keying" `Quick test_shard_roundtrip;
          Alcotest.test_case "prune stale" `Quick test_shard_prune_stale;
          Alcotest.test_case "sched profile keying" `Quick test_shard_sched_keying;
          Alcotest.test_case "partial-hit splice across sched change" `Slow
            test_partial_hit_splice_sched;
          Alcotest.test_case "prune legacy + clear scope" `Quick
            test_prune_legacy_and_clear_scope;
          Alcotest.test_case "cached suite identical" `Slow test_suite_cached_identical;
          Alcotest.test_case "cached ablation identical" `Slow test_ablation_cached_identical;
          Alcotest.test_case "checked suite never reads the cache" `Slow
            test_checked_suite_skips_cache;
        ] );
    ]
