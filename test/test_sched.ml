(* The scheduler-scenario test net: golden fingerprints pinning every
   scenario's simulated execution bit-for-bit, qcheck properties over the
   profile axis (latency-matrix well-formedness, think-time envelopes,
   start-offset phases), and jobs-invariance of a sweep run under an
   asymmetric profile. *)

module Engine = Machine.Engine
module Config = Machine.Config
module Stats = Machine.Stats
module Profile = Sched.Profile
module Scenarios = Sched.Scenarios
module Numa = Mem.Numa

let preset_of_letter = function
  | "B" -> Config.baseline
  | "P" -> Config.power_tm
  | "C" -> Config.clear_rw
  | _ -> Config.clear_power

(* ------------------------------------------------------------------ *)
(* Registry sanity *)

let test_registry_valid () =
  List.iter
    (fun (name, p) ->
      Alcotest.(check (list string)) (name ^ " validates clean") [] (Profile.validate p);
      Alcotest.(check string) (name ^ " is its registry key") name p.Profile.name)
    Scenarios.all;
  Alcotest.(check bool) "symmetric is symmetric" true (Profile.is_symmetric Scenarios.symmetric);
  List.iter
    (fun (name, p) ->
      if name <> "symmetric" then
        Alcotest.(check bool) (name ^ " perturbs the machine") false (Profile.is_symmetric p))
    Scenarios.all;
  Alcotest.(check bool) "find hits" true (Scenarios.find "numa2x" = Some Scenarios.numa2x);
  Alcotest.(check bool) "find misses" true (Scenarios.find "nope" = None)

let test_total_ops () =
  Alcotest.(check int) "symmetric total" (8 * 40)
    (Profile.total_ops Scenarios.symmetric ~cores:8 ~base:40);
  (* hot_core: one core runs 2x the ops. *)
  Alcotest.(check int) "hot_core total" ((7 * 40) + 80)
    (Profile.total_ops Scenarios.hot_core ~cores:8 ~base:40)

(* ------------------------------------------------------------------ *)
(* Golden fingerprints: (total cycles, commits, aborts, instrs, wasted)
   for every (scenario, config, seed) on the stack benchmark at 4 cores,
   40 ops/thread, 4 retries. Captured from the initial sched subsystem;
   regenerate with:
     dune exec bin/clear_sim.exe -- sched --fingerprint --cores 4 --ops 40
   Any unintended drift here is a determinism break, not a tuning change —
   in particular the "symmetric" rows must match a pre-profile engine. *)
let golden_fingerprints =
  [
    ("symmetric", "B", 3, (28451, 160, 333, 1618, 638));
    ("symmetric", "B", 5, (31289, 160, 389, 1768, 728));
    ("symmetric", "B", 7, (32539, 160, 399, 1682, 684));
    ("symmetric", "P", 3, (28667, 160, 437, 2080, 1100));
    ("symmetric", "P", 5, (31522, 160, 496, 2197, 1165));
    ("symmetric", "P", 7, (30712, 160, 451, 2075, 1081));
    ("symmetric", "C", 3, (22857, 160, 126, 1967, 804));
    ("symmetric", "C", 5, (23770, 160, 130, 2085, 855));
    ("symmetric", "C", 7, (23971, 160, 121, 1947, 764));
    ("symmetric", "W", 3, (22441, 160, 124, 1931, 774));
    ("symmetric", "W", 5, (24109, 160, 128, 2079, 823));
    ("symmetric", "W", 7, (23243, 160, 125, 1954, 797));
    ("hot_core", "B", 3, (33124, 200, 478, 2059, 842));
    ("hot_core", "B", 5, (35162, 200, 499, 2179, 887));
    ("hot_core", "B", 7, (36021, 200, 541, 2162, 895));
    ("hot_core", "P", 3, (33090, 200, 593, 2698, 1485));
    ("hot_core", "P", 5, (38255, 200, 715, 3060, 1768));
    ("hot_core", "P", 7, (35347, 200, 631, 2795, 1532));
    ("hot_core", "C", 3, (23766, 200, 147, 2203, 846));
    ("hot_core", "C", 5, (25356, 200, 141, 2465, 945));
    ("hot_core", "C", 7, (25689, 200, 150, 2405, 935));
    ("hot_core", "W", 3, (24298, 200, 154, 2342, 919));
    ("hot_core", "W", 5, (25356, 200, 141, 2465, 945));
    ("hot_core", "W", 7, (25875, 200, 158, 2471, 996));
    ("skewed_think", "B", 3, (26873, 160, 292, 1494, 518));
    ("skewed_think", "B", 5, (31800, 160, 330, 1636, 600));
    ("skewed_think", "B", 7, (31972, 160, 309, 1575, 577));
    ("skewed_think", "P", 3, (29224, 160, 452, 2099, 1123));
    ("skewed_think", "P", 5, (32454, 160, 481, 2228, 1196));
    ("skewed_think", "P", 7, (32192, 160, 469, 2204, 1206));
    ("skewed_think", "C", 3, (22709, 160, 110, 1788, 681));
    ("skewed_think", "C", 5, (25076, 160, 114, 1910, 731));
    ("skewed_think", "C", 7, (24742, 160, 114, 1843, 714));
    ("skewed_think", "W", 3, (22172, 160, 126, 1872, 777));
    ("skewed_think", "W", 5, (24910, 160, 112, 1902, 725));
    ("skewed_think", "W", 7, (25090, 160, 113, 1832, 703));
    ("numa2x", "B", 3, (46708, 160, 497, 1842, 866));
    ("numa2x", "B", 5, (52640, 160, 551, 2039, 1003));
    ("numa2x", "B", 7, (49695, 160, 496, 1846, 860));
    ("numa2x", "P", 3, (44556, 160, 653, 2455, 1479));
    ("numa2x", "P", 5, (49170, 160, 754, 2700, 1664));
    ("numa2x", "P", 7, (51687, 160, 771, 2713, 1723));
    ("numa2x", "C", 3, (30576, 160, 157, 2043, 864));
    ("numa2x", "C", 5, (30801, 160, 143, 2248, 895));
    ("numa2x", "C", 7, (30127, 160, 130, 2078, 815));
    ("numa2x", "W", 3, (30689, 160, 189, 2232, 965));
    ("numa2x", "W", 5, (30781, 160, 143, 2238, 896));
    ("numa2x", "W", 7, (32646, 160, 162, 2215, 912));
    ("phased_start", "B", 3, (29411, 160, 316, 1559, 583));
    ("phased_start", "B", 5, (31819, 160, 385, 1720, 684));
    ("phased_start", "B", 7, (31235, 160, 317, 1552, 558));
    ("phased_start", "P", 3, (29127, 160, 428, 2002, 1026));
    ("phased_start", "P", 5, (33517, 160, 518, 2290, 1254));
    ("phased_start", "P", 7, (30792, 160, 456, 2111, 1125));
    ("phased_start", "C", 3, (22851, 160, 112, 1838, 721));
    ("phased_start", "C", 5, (24019, 160, 122, 2059, 838));
    ("phased_start", "C", 7, (23821, 160, 113, 1903, 748));
    ("phased_start", "W", 3, (22399, 160, 120, 1868, 743));
    ("phased_start", "W", 5, (24019, 160, 122, 2059, 838));
    ("phased_start", "W", 7, (23821, 160, 113, 1903, 748));
  ]

let test_golden_fingerprints () =
  let stack = Workloads.Registry.find "stack" in
  List.iter
    (fun (sname, letter, seed, (gc, gcm, gab, gin, gwa)) ->
      let cfg =
        Config.with_sched
          {
            (preset_of_letter letter) with
            Config.cores = 4;
            ops_per_thread = 40;
            max_retries = 4;
            seed;
          }
          (Option.get (Scenarios.find sname))
      in
      let stats = Engine.run_workload cfg stack in
      let got =
        ( Stats.total_cycles stats,
          Stats.commits stats,
          Stats.aborts stats,
          Stats.instrs stats,
          Stats.wasted_instrs stats )
      in
      if got <> (gc, gcm, gab, gin, gwa) then begin
        let c, cm, ab, ins, wa = got in
        Alcotest.failf "%s/%s seed %d: got (%d,%d,%d,%d,%d), golden (%d,%d,%d,%d,%d)" sname letter
          seed c cm ab ins wa gc gcm gab gin gwa
      end)
    golden_fingerprints

(* The symmetric profile must commit exactly cores x ops, and hot_core must
   commit the multiplied total — the golden table already encodes this, but
   state it explicitly so a regeneration cannot silently change semantics. *)
let test_commit_totals () =
  List.iter
    (fun (sname, _, _, (_, commits, _, _, _)) ->
      let expected =
        Profile.total_ops (Option.get (Scenarios.find sname)) ~cores:4 ~base:40
      in
      Alcotest.(check int) (sname ^ " commit total") expected commits)
    golden_fingerprints

(* The NUMA counter must be zero on every flat scenario and positive under
   numa2x (remote traffic is unavoidable with a shared stack). *)
let test_numa_counter () =
  let stack = Workloads.Registry.find "stack" in
  let run sname =
    let cfg =
      Config.with_sched
        { Config.baseline with Config.cores = 4; ops_per_thread = 40; seed = 3 }
        (Option.get (Scenarios.find sname))
    in
    let stats = Engine.run_workload cfg stack in
    Simrt.Counter.get (Stats.counters stats) "numa_adder_cycles"
  in
  Alcotest.(check int) "symmetric charges nothing" 0 (run "symmetric");
  Alcotest.(check int) "hot_core charges nothing" 0 (run "hot_core");
  Alcotest.(check bool) "numa2x charges cycles" true (run "numa2x" > 0)

(* ------------------------------------------------------------------ *)
(* qcheck: latency-matrix well-formedness *)

let qcheck_two_socket_well_formed =
  QCheck.Test.make ~name:"two_socket is well-formed for any remote >= 0" ~count:200
    QCheck.(int_range 0 10_000)
    (fun remote -> Numa.well_formed (Numa.two_socket ~remote))

let qcheck_malformed_rejected =
  (* Perturb one off-diagonal cell of a valid matrix asymmetrically, put a
     non-zero on the diagonal, or make a cell negative: all must be caught. *)
  QCheck.Test.make ~name:"asymmetry, diagonal and sign violations rejected" ~count:200
    QCheck.(pair (int_range 1 500) (int_range 0 1))
    (fun (remote, which) ->
      let asym = Numa.two_socket ~remote in
      asym.Numa.adders.(0).(1) <- remote + 1;
      let diag = Numa.two_socket ~remote in
      diag.Numa.adders.(which).(which) <- 1;
      let neg = Numa.two_socket ~remote in
      neg.Numa.adders.(1).(0) <- -remote;
      neg.Numa.adders.(0).(1) <- -remote;
      (not (Numa.well_formed asym))
      && (not (Numa.well_formed diag))
      && not (Numa.well_formed neg))

let qcheck_adder_symmetric =
  QCheck.Test.make ~name:"adder is symmetric in (socket, slice)" ~count:300
    QCheck.(triple (int_range 0 1_000) (int_range 0 31) (int_range 0 4_095))
    (fun (remote, core, dir_set) ->
      let m = Numa.two_socket ~remote in
      let cores = 32 in
      let s = Numa.socket_of_core m ~cores core in
      let h = Numa.home_of_dir_set m ~dir_set in
      let a = Numa.adder m ~cores ~core ~dir_set in
      a = m.Numa.adders.(s).(h) && a = m.Numa.adders.(h).(s) && a >= 0)

let qcheck_flat_adder_zero =
  QCheck.Test.make ~name:"flat matrix never charges" ~count:200
    QCheck.(pair (int_range 0 63) (int_range 0 4_095))
    (fun (core, dir_set) -> Numa.adder Numa.flat ~cores:64 ~core ~dir_set = 0)

(* ------------------------------------------------------------------ *)
(* qcheck: think-time samples stay inside the declared envelope *)

let gen_dist =
  QCheck.Gen.(
    oneof
      [
        return Profile.Default;
        map (fun c -> Profile.Const c) (int_bound 500);
        map2 (fun lo span -> Profile.Uniform { lo; hi = lo + span }) (int_bound 300) (int_bound 400);
        map3
          (fun lo span heat ->
            Profile.Burst { lo; hi = lo + span; heat = float_of_int heat /. 4.0 })
          (int_bound 300) (int_bound 400) (int_bound 12);
      ])

let arb_profile_inputs =
  QCheck.make
    ~print:(fun (d, base, seed) -> Printf.sprintf "(%s, base %d, seed %d)" (Profile.dist_name d) base seed)
    QCheck.Gen.(triple gen_dist (int_range 1 400) (int_bound 10_000))

let qcheck_think_in_bounds =
  QCheck.Test.make ~name:"sample_think within think_bounds for all seeds" ~count:300
    arb_profile_inputs
    (fun (dist, base, seed) ->
      let p = { Scenarios.symmetric with Profile.think = dist; name = "q" } in
      let rng = Simrt.Rng.create seed in
      let lo, hi = Profile.think_bounds p ~core:3 ~base in
      let ok = ref (lo <= hi) in
      for _ = 1 to 100 do
        let s = Profile.sample_think p ~core:3 ~base rng in
        if s < lo || s > hi then ok := false
      done;
      !ok)

let qcheck_hot_think_selected =
  QCheck.Test.make ~name:"hot cores draw from hot_think's envelope" ~count:200
    arb_profile_inputs
    (fun (dist, base, seed) ->
      let p =
        {
          Scenarios.symmetric with
          Profile.name = "q-hot";
          hot_cores = 2;
          hot_think = dist;
          think = Profile.Const 7;
        }
      in
      let rng = Simrt.Rng.create seed in
      let lo, hi = Profile.think_bounds p ~core:0 ~base in
      let cold_lo, cold_hi = Profile.think_bounds p ~core:2 ~base in
      let hot_ok = ref true in
      for _ = 1 to 50 do
        let s = Profile.sample_think p ~core:1 ~base rng in
        if s < lo || s > hi then hot_ok := false
      done;
      !hot_ok && cold_lo = 7 && cold_hi = 7
      && Profile.sample_think p ~core:2 ~base rng = 7)

let qcheck_start_offset_bounds =
  QCheck.Test.make ~name:"start_offset = stride*core + U[0, base]" ~count:300
    QCheck.(triple (int_range 0 500) (int_range 0 31) (int_range 1 400))
    (fun (stride, core, base) ->
      let p = { Scenarios.symmetric with Profile.name = "q-stride"; phase_stride = stride } in
      let rng = Simrt.Rng.create (stride + core + base) in
      let off = Profile.start_offset p ~core ~base rng in
      off >= stride * core && off <= (stride * core) + base)

(* ------------------------------------------------------------------ *)
(* Jobs invariance: a sweep under an asymmetric schedule profile must be
   bit-identical at any job count (same contract the symmetric suite has). *)

let sched_micro_options =
  {
    Clear_repro.Experiments.cores = 4;
    ops_per_thread = 30;
    seeds = [ 3; 5 ];
    trim = 0;
    retry_choices = [ 4 ];
    sched = Scenarios.numa2x;
  }

let test_jobs_invariant_with_profile () =
  let workloads = [ Workloads.Stack.workload; Workloads.Bitcoin.workload ] in
  let run jobs = Clear_repro.Experiments.run_suite ~jobs ~workloads sched_micro_options in
  let s1 = run 1 and s2 = run 2 in
  Alcotest.(check bool)
    "numa2x sweep bit-identical at jobs 1 vs 2" true
    (s1.Clear_repro.Experiments.rows = s2.Clear_repro.Experiments.rows)

let test_profile_changes_results () =
  (* The non-symmetric scenarios must actually change the simulation — a
     profile that is silently ignored would pass every other test here. *)
  let stack = Workloads.Registry.find "stack" in
  let cycles sname =
    let cfg =
      Config.with_sched
        { Config.baseline with Config.cores = 4; ops_per_thread = 40; seed = 3 }
        (Option.get (Scenarios.find sname))
    in
    Stats.total_cycles (Engine.run_workload cfg stack)
  in
  let base = cycles "symmetric" in
  List.iter
    (fun sname ->
      if sname <> "symmetric" then
        Alcotest.(check bool) (sname ^ " perturbs the run") true (cycles sname <> base))
    Scenarios.names

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "sched"
    [
      ( "registry",
        [
          Alcotest.test_case "scenarios validate" `Quick test_registry_valid;
          Alcotest.test_case "total ops" `Quick test_total_ops;
        ] );
      ( "golden",
        [
          Alcotest.test_case "scenario fingerprints" `Quick test_golden_fingerprints;
          Alcotest.test_case "commit totals" `Quick test_commit_totals;
          Alcotest.test_case "numa counter" `Quick test_numa_counter;
          Alcotest.test_case "profiles perturb" `Quick test_profile_changes_results;
        ] );
      ( "properties",
        qsuite
          [
            qcheck_two_socket_well_formed;
            qcheck_malformed_rejected;
            qcheck_adder_symmetric;
            qcheck_flat_adder_zero;
            qcheck_think_in_bounds;
            qcheck_hot_think_selected;
            qcheck_start_offset_bounds;
          ] );
      ( "parallel",
        [ Alcotest.test_case "jobs invariance under numa2x" `Quick test_jobs_invariant_with_profile ] );
    ]
