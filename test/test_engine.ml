(* End-to-end engine tests: semantic correctness of simulated execution,
   atomicity invariants under every execution mode, determinism, and the
   CLEAR-specific behaviours (discovery, NS-CL/S-CL conversion, fallback). *)

module Engine = Machine.Engine
module Config = Machine.Config
module Stats = Machine.Stats
module Workload = Machine.Workload
module Store = Mem.Store
module A = Isa.Asm
module I = Isa.Instr
module P = Isa.Program

let small cfg = { cfg with Config.cores = 8; ops_per_thread = 60; memory_words = 1 lsl 20 }

let tiny cfg = { cfg with Config.cores = 2; ops_per_thread = 10; memory_words = 1 lsl 18 }

(* ------------------------------------------------------------------ *)
(* A hand-built workload with a known arithmetic result: every op adds a
   fixed delta to one shared counter. Checks basic execution semantics and
   atomicity in one go: final counter = ops * delta exactly. *)

let counter_workload ~delta =
  let counter_addr = 64 in
  let ar =
    P.build_ar ~id:0 ~name:"count" (fun b ->
        A.ld b ~dst:8 ~base:(I.Reg 0) ~region:"ctr" ();
        A.add b ~dst:8 (I.Reg 8) (I.Reg 1);
        A.st b ~base:(I.Reg 0) ~src:(I.Reg 8) ~region:"ctr" ();
        A.halt b)
  in
  ( {
      Workload.name = "counter";
      description = "shared counter increments";
      ars = [ ar ];
      memory_words = 128;
      setup = (fun store _ -> Store.write store counter_addr 0);
      make_driver = (fun ~tid:_ ~threads:_ _ _ () -> Workload.op ar [ (0, counter_addr); (1, delta) ]);
    },
    counter_addr )

let test_counter_exact preset () =
  let w, addr = counter_workload ~delta:3 in
  let cfg = small preset in
  let engine = Engine.create cfg w in
  let stats = Engine.run engine in
  let expected = cfg.Config.cores * cfg.Config.ops_per_thread in
  Alcotest.(check int) "all ops committed" expected (Stats.commits stats);
  Alcotest.(check int) "counter is atomic" (expected * 3) (Store.read (Engine.store engine) addr)

(* ------------------------------------------------------------------ *)
(* Determinism *)

let test_determinism () =
  let run () =
    let stats = Engine.run_workload (small Config.clear_power) Workloads.Bst.workload in
    (Stats.total_cycles stats, Stats.commits stats, Stats.aborts stats)
  in
  let a = run () and b = run () in
  Alcotest.(check (triple int int int)) "identical runs" a b

let test_seed_changes_outcome () =
  let run seed =
    let cfg = Config.with_seed (small Config.baseline) seed in
    Stats.total_cycles (Engine.run_workload cfg Workloads.Bst.workload)
  in
  Alcotest.(check bool) "different seeds differ" true (run 1 <> run 2)

(* Golden fingerprints: (total cycles, commits, aborts, instrs, wasted)
   captured from the original engine (Hashtbl conflict map, list-based
   footprints, flat-array store) at 4 cores, 40 ops/thread, 4 retries.
   The flat hot-path data structures must reproduce every simulated run
   bit for bit — any drift here is a semantic change, not an optimisation. *)
let golden_fingerprints =
  [
    ("hashmap", "B", 3, (18403, 160, 16, 3738, 204));
    ("hashmap", "B", 5, (21077, 160, 15, 4267, 324));
    ("hashmap", "B", 7, (18138, 160, 18, 3612, 278));
    ("hashmap", "P", 3, (18392, 160, 17, 3739, 211));
    ("hashmap", "P", 5, (21077, 160, 15, 4267, 324));
    ("hashmap", "P", 7, (18138, 160, 18, 3612, 278));
    ("hashmap", "C", 3, (18657, 160, 18, 4004, 449));
    ("hashmap", "C", 5, (20871, 160, 18, 4435, 503));
    ("hashmap", "C", 7, (18005, 160, 14, 3807, 472));
    ("hashmap", "W", 3, (18657, 160, 18, 4004, 449));
    ("hashmap", "W", 5, (20871, 160, 18, 4435, 503));
    ("hashmap", "W", 7, (17864, 160, 14, 3776, 441));
    ("bitcoin", "B", 3, (20713, 160, 44, 1639, 199));
    ("bitcoin", "B", 5, (20339, 160, 44, 1648, 208));
    ("bitcoin", "B", 7, (20533, 160, 47, 1676, 236));
    ("bitcoin", "P", 3, (20269, 160, 47, 1623, 183));
    ("bitcoin", "P", 5, (19952, 160, 24, 1561, 121));
    ("bitcoin", "P", 7, (20121, 160, 45, 1642, 202));
    ("bitcoin", "C", 3, (19303, 160, 19, 1612, 171));
    ("bitcoin", "C", 5, (19684, 160, 18, 1602, 162));
    ("bitcoin", "C", 7, (19186, 160, 26, 1676, 234));
    ("bitcoin", "W", 3, (19303, 160, 19, 1612, 171));
    ("bitcoin", "W", 5, (19684, 160, 18, 1602, 162));
    ("bitcoin", "W", 7, (19186, 160, 26, 1676, 234));
    ("bst", "B", 3, (22021, 160, 11, 9243, 67));
    ("bst", "B", 5, (21214, 160, 2, 8303, 90));
    ("bst", "B", 7, (22165, 160, 1, 9071, 27));
    ("bst", "P", 3, (21848, 160, 4, 9222, 46));
    ("bst", "P", 5, (21214, 160, 2, 8303, 90));
    ("bst", "P", 7, (22165, 160, 1, 9071, 27));
    ("bst", "C", 3, (21848, 160, 3, 9324, 146));
    ("bst", "C", 5, (21238, 160, 2, 8329, 116));
    ("bst", "C", 7, (22165, 160, 1, 9102, 58));
    ("bst", "W", 3, (21848, 160, 3, 9324, 146));
    ("bst", "W", 5, (21238, 160, 2, 8329, 116));
    ("bst", "W", 7, (22165, 160, 1, 9102, 58));
  ]

let test_golden_fingerprints () =
  List.iter
    (fun (wname, letter, seed, (gc, gcm, gab, gin, gwa)) ->
      let preset =
        match letter with
        | "B" -> Config.baseline
        | "P" -> Config.power_tm
        | "C" -> Config.clear_rw
        | _ -> Config.clear_power
      in
      let cfg =
        Config.with_seed { preset with Config.cores = 4; ops_per_thread = 40; max_retries = 4 } seed
      in
      let stats = Engine.run_workload cfg (Workloads.Registry.find wname) in
      let got =
        ( Stats.total_cycles stats,
          Stats.commits stats,
          Stats.aborts stats,
          Stats.instrs stats,
          Stats.wasted_instrs stats )
      in
      let c, cm, ab, ins, wa = got in
      if got <> (gc, gcm, gab, gin, gwa) then
        Alcotest.failf "%s/%s seed %d: got (%d,%d,%d,%d,%d), golden (%d,%d,%d,%d,%d)" wname letter
          seed c cm ab ins wa gc gcm gab gin gwa)
    golden_fingerprints

(* Event counts: the number of events the sequential loop steps, with the
   run's fingerprint, pinned from the engine before idle cores moved off
   the event heap. The closed-loop runs are contended at 16 cores with one
   retry: under B most waits spin on the fallback lock ([spin_cycles]
   out), under C cores also retry held cacheline locks ([spin_cycles / 2]
   out). The open-loop points park idle cores between Poisson arrivals
   and re-park them a run at a time. A queue change that lost, repeated
   or reordered an event would move these numbers. *)
let golden_event_counts =
  let closed preset =
    Config.with_seed { preset with Config.cores = 16; ops_per_thread = 40; max_retries = 1 } 42
  in
  let open_ preset rate =
    Config.with_openloop
      (Config.with_seed (Config.with_retries preset 1) 42)
      (Some
         {
           Config.open_rate = rate;
           open_requests = 2_000;
           open_process = Config.Open_poisson;
           open_queue_cap = 0;
         })
  in
  let queue () = Workloads.Registry.find "queue" in
  let keyed () = Workloads.Registry.open_scaled "arrayswap" ~keys:(1 lsl 12) ~theta:6.0 in
  [
    ("queue/B closed", closed Config.baseline, queue, 51013, (165014, 640, 7083, 12124, 7757));
    ("queue/C closed", closed Config.clear_rw, queue, 40837, (106472, 640, 1720, 16669, 5009));
    ("arrayswap/B open@20", open_ Config.baseline 20.0, keyed, 88382, (139728, 2000, 15009, 20024, 9399));
    ("arrayswap/C open@50", open_ Config.clear_rw 50.0, keyed, 34058, (40957, 2000, 674, 15909, 3571));
  ]

let test_golden_event_counts () =
  List.iter
    (fun (name, cfg, workload, gev, gfp) ->
      let engine = Engine.create cfg (workload ()) in
      let stats = Engine.run engine in
      let fp =
        ( Stats.total_cycles stats,
          Stats.commits stats,
          Stats.aborts stats,
          Stats.instrs stats,
          Stats.wasted_instrs stats )
      in
      let events = (Engine.perfctr engine).Simrt.Perfctr.events_popped in
      if (events, fp) <> (gev, gfp) then begin
        let c, cm, ab, ins, wa = fp and gc, gcm, gab, gin, gwa = gfp in
        Alcotest.failf "%s: got %d events (%d,%d,%d,%d,%d), golden %d events (%d,%d,%d,%d,%d)" name events c
          cm ab ins wa gev gc gcm gab gin gwa
      end)
    golden_event_counts

(* Sibling pins of the rows above, from the same runs: the perf counters the
   memory-access path bumps (conflict checks, conflict hits, footprint
   inserts, store-forward scans) and the commits in each mode of
   [Stats.all_commit_modes]. A restructured access path or attempt
   lifecycle must leave every one of them unchanged. *)
let golden_access_counts =
  [
    ("queue/B closed", (9173, 929, 10349, 3863), [ 35; 0; 0; 605 ]);
    ("queue/C closed", (3209, 184, 14157, 2522), [ 39; 458; 0; 143 ]);
    ("arrayswap/B open@20", (15152, 520, 16388, 10748), [ 1382; 0; 0; 618 ]);
    ("arrayswap/C open@50", (5743, 74, 11589, 4000), [ 1326; 0; 674; 0 ]);
  ]

let test_golden_access_counts () =
  List.iter2
    (fun (name, cfg, workload, _, _) (name', gpc, gmodes) ->
      assert (name = name');
      let engine = Engine.create cfg (workload ()) in
      let stats = Engine.run engine in
      let p = Engine.perfctr engine in
      let pc =
        Simrt.Perfctr.(p.conflict_checks, p.conflict_hits, p.footprint_inserts, p.store_forward_scans)
      in
      let modes = List.map (Stats.commits_in_mode stats) Stats.all_commit_modes in
      if (pc, modes) <> (gpc, gmodes) then begin
        let str (a, b, c, d) = Printf.sprintf "(%d, %d, %d, %d)" a b c d in
        let lst l = "[ " ^ String.concat "; " (List.map string_of_int l) ^ " ]" in
        Alcotest.failf "%s: got %s %s, golden %s %s" name (str pc) (lst modes) (str gpc) (lst gmodes)
      end)
    golden_event_counts golden_access_counts

(* What a checked run emits to its collector, counted by kind: commits,
   Attempt_begin, Attempt_end, Lock, Unlock, decisions, conflicts,
   driver-write batches and failed-mode entries. The counting sink forwards
   to the streaming oracle, whose verdict must stay clean. Every discovery
   that reaches the region's end makes one decision; one that overflows the
   SQ aborts without, so decisions never outnumber failed-mode entries. *)
let golden_emission_counts =
  [
    ( "labyrinth/C checked",
      Config.with_seed { Config.clear_rw with Config.cores = 8; ops_per_thread = 30 } 42,
      "labyrinth",
      [ 240; 369; 369; 400; 400; 59; 77; 115; 59 ] );
    ( "hashmap/W sle checked",
      Config.with_frontend
        (Config.with_seed { Config.clear_power with Config.cores = 4; ops_per_thread = 40 } 42)
        Config.Sle,
      "hashmap",
      [ 160; 175; 175; 27; 27; 13; 12; 0; 13 ] );
  ]

let test_golden_emission_counts () =
  List.iter
    (fun (name, cfg, wname, golden) ->
      let n = Array.make 9 0 in
      let bump i = n.(i) <- n.(i) + 1 in
      let str =
        Check.Stream.create ~static_gate:(Clear_repro.Run.static_gate_of_config cfg)
          ~cores:cfg.Config.cores ()
      in
      let s = Check.Stream.sink str in
      let counting =
        {
          s with
          Check.Collector.sink_commit =
            (fun w ->
              bump 0;
              s.Check.Collector.sink_commit w);
          sink_lock_event =
            (fun ev ->
              bump
                (match ev with
                | Check.Lock_safety.Attempt_begin _ -> 1
                | Attempt_end _ -> 2
                | Lock _ -> 3
                | Unlock _ -> 4
                | Failed_mode _ -> 8);
              s.sink_lock_event ev);
          sink_decision =
            (fun d ->
              bump 5;
              s.sink_decision d);
          sink_conflict =
            (fun c ->
              bump 6;
              s.sink_conflict c);
          sink_driver_writes =
            (fun ~time ~core ~stores ->
              bump 7;
              s.sink_driver_writes ~time ~core ~stores);
        }
      in
      let col = Check.Collector.create_streaming ~cores:cfg.Config.cores counting in
      let engine = Engine.create ~check:col cfg (Workloads.Registry.find wname) in
      ignore (Engine.run engine : Stats.t);
      let verdict = Check.Verdict.of_stream str ~final:(Store.snapshot (Engine.store engine)) in
      Alcotest.(check bool) (name ^ ": verdict clean") true (Check.Verdict.ok verdict);
      Alcotest.(check (list int)) (name ^ ": emission counts") golden (Array.to_list n);
      Alcotest.(check bool) (name ^ ": decisions <= failed-mode entries") true (n.(5) <= n.(8)))
    golden_emission_counts

(* ------------------------------------------------------------------ *)
(* Atomicity invariants on real workloads, under every configuration. *)

let presets = [ ("B", Config.baseline); ("P", Config.power_tm); ("C", Config.clear_rw); ("W", Config.clear_power) ]

(* bitcoin: the total number of coins is conserved by transfers. *)
let test_bitcoin_conservation (name, preset) () =
  let w = Workloads.Bitcoin.make ~wallets:16 () in
  let cfg = small preset in
  let engine = Engine.create cfg w in
  let _ = Engine.run engine in
  let store = Engine.store engine in
  (* wallet pointers live in the users directory starting at word 64 *)
  let users = 64 in
  let total = ref 0 in
  for i = 0 to 15 do
    let wallet = Store.read store (users + i) in
    total := !total + Store.read store wallet
  done;
  Alcotest.(check int) (name ^ ": coins conserved") (16 * 10_000) !total

(* mwobject: field sums equal known per-commit deltas. *)
let test_mwobject_sums (name, preset) () =
  let w = Workloads.Mwobject.make ~objects:1 () in
  let cfg = small preset in
  let engine = Engine.create cfg w in
  let stats = Engine.run engine in
  let store = Engine.store engine in
  let base = 64 in
  let commits = Stats.commits stats in
  (* deltas for fields 0 and 2 are always 1 per committed op *)
  Alcotest.(check int) (name ^ ": field0") commits (Store.read store (base + 0));
  Alcotest.(check int) (name ^ ": field2") commits (Store.read store (base + 2))

(* sorted-list: keys remain sorted strictly ascending and the list acyclic. *)
let test_sorted_list_invariant (name, preset) () =
  let w = Workloads.Sorted_list.workload in
  let engine = Engine.create (small preset) w in
  let _ = Engine.run engine in
  let store = Engine.store engine in
  let head = 64 in
  let seen = Hashtbl.create 64 in
  let rec walk node last count =
    if node = 0 then count
    else begin
      Alcotest.(check bool) (name ^ ": acyclic") false (Hashtbl.mem seen node);
      Hashtbl.add seen node ();
      let key = Store.read store node in
      Alcotest.(check bool) (name ^ ": sorted strictly") true (key > last);
      walk (Store.read store (node + 1)) key (count + 1)
    end
  in
  let n = walk (Store.read store head) min_int 0 in
  Alcotest.(check bool) (name ^ ": bounded by key range") true (n <= 24)

(* bst: in-order traversal is strictly sorted; structure acyclic. *)
let test_bst_invariant (name, preset) () =
  let w = Workloads.Bst.workload in
  let engine = Engine.create (small preset) w in
  let _ = Engine.run engine in
  let store = Engine.store engine in
  let root_addr = 64 in
  let seen = Hashtbl.create 256 in
  let last = ref min_int in
  let rec inorder node =
    if node <> 0 then begin
      Alcotest.(check bool) (name ^ ": acyclic") false (Hashtbl.mem seen node);
      Hashtbl.add seen node ();
      inorder (Store.read store (node + 1));
      let key = Store.read store node in
      Alcotest.(check bool) (name ^ ": in-order sorted") true (key > !last);
      last := key;
      inorder (Store.read store (node + 2))
    end
  in
  inorder (Store.read store root_addr)

(* queue: the chain from head is acyclic and null-terminated. *)
let test_queue_invariant (name, preset) () =
  let w = Workloads.Queue.workload in
  let engine = Engine.create (small preset) w in
  let _ = Engine.run engine in
  let store = Engine.store engine in
  let head = 64 in
  let seen = Hashtbl.create 256 in
  let rec walk node =
    if node <> 0 then begin
      Alcotest.(check bool) (name ^ ": acyclic") false (Hashtbl.mem seen node);
      Hashtbl.add seen node ();
      walk (Store.read store (node + 1))
    end
  in
  walk (Store.read store head)

(* stack: push/pop leave an acyclic chain whose length matches committed
   pushes minus non-empty pops. *)
let test_stack_invariant (name, preset) () =
  let w = Workloads.Stack.workload in
  let engine = Engine.create (small preset) w in
  let _ = Engine.run engine in
  let store = Engine.store engine in
  let top = 64 in
  let seen = Hashtbl.create 256 in
  let rec walk node n =
    if node = 0 then n
    else begin
      Alcotest.(check bool) (name ^ ": acyclic") false (Hashtbl.mem seen node);
      Hashtbl.add seen node ();
      walk (Store.read store (node + 1)) (n + 1)
    end
  in
  ignore (walk (Store.read store top) 0)

(* ------------------------------------------------------------------ *)
(* CLEAR-specific behaviour *)

let test_nscl_used_for_immutable () =
  let stats = Engine.run_workload (small Config.clear_rw) Workloads.Arrayswap.workload in
  Alcotest.(check bool) "NS-CL commits happen" true (Stats.commits_in_mode stats Stats.Nscl > 0);
  Alcotest.(check int) "no S-CL for immutable ARs" 0 (Stats.commits_in_mode stats Stats.Scl)

let test_scl_used_for_likely_immutable () =
  let stats = Engine.run_workload (small Config.clear_rw) Workloads.Bitcoin.workload in
  Alcotest.(check bool) "S-CL commits happen" true (Stats.commits_in_mode stats Stats.Scl > 0);
  Alcotest.(check int) "no NS-CL with indirections" 0 (Stats.commits_in_mode stats Stats.Nscl)

let test_no_cl_modes_when_disabled () =
  let stats = Engine.run_workload (small Config.baseline) Workloads.Arrayswap.workload in
  Alcotest.(check int) "no NS-CL" 0 (Stats.commits_in_mode stats Stats.Nscl);
  Alcotest.(check int) "no S-CL" 0 (Stats.commits_in_mode stats Stats.Scl)

let test_clear_reduces_aborts () =
  let run preset = Stats.aborts_per_commit (Engine.run_workload (small preset) Workloads.Mwobject.workload) in
  let b = run Config.baseline and c = run Config.clear_rw in
  Alcotest.(check bool) (Printf.sprintf "aborts/commit improves (B %.2f vs C %.2f)" b c) true (c < b)

let test_clear_improves_single_retry () =
  let breakdown preset =
    let s = Engine.run_workload (small preset) Workloads.Mwobject.workload in
    let one, _, _ = Stats.retry_breakdown s in
    one
  in
  Alcotest.(check bool) "more single-retry commits" true
    (breakdown Config.clear_rw > breakdown Config.baseline)

let test_fallback_under_zero_retries () =
  let cfg = { (small Config.baseline) with Config.max_retries = 0 } in
  let w, addr = counter_workload ~delta:1 in
  let engine = Engine.create cfg w in
  let stats = Engine.run engine in
  let expected = cfg.Config.cores * cfg.Config.ops_per_thread in
  Alcotest.(check int) "all committed" expected (Stats.commits stats);
  Alcotest.(check int) "atomic under fallback" expected (Store.read (Engine.store engine) addr);
  Alcotest.(check bool) "fallback exercised" true (Stats.commits_in_mode stats Stats.Fallback > 0)

let test_failed_mode_discovery_ablation () =
  (* Without failed-mode discovery the region's footprint is never fully
     learned, so no conversion can happen. *)
  let cfg = { (small Config.clear_rw) with Config.failed_mode_discovery = false } in
  let stats = Engine.run_workload cfg Workloads.Mwobject.workload in
  Alcotest.(check int) "no NS-CL without discovery-to-end" 0 (Stats.commits_in_mode stats Stats.Nscl);
  Alcotest.(check int) "no S-CL either" 0 (Stats.commits_in_mode stats Stats.Scl)

let test_spec_requests_stall_on_locked_lines () =
  (* Contended CLEAR run: locked lines must stall plain speculative
     requesters (counted) rather than abort them, and everything still
     commits. *)
  let cfg = small Config.clear_rw in
  let stats = Engine.run_workload cfg Workloads.Hashmap.workload in
  Alcotest.(check int) "all ops commit" (cfg.Config.cores * cfg.Config.ops_per_thread)
    (Stats.commits stats);
  Alcotest.(check bool) "stall cycles observed" true
    (Simrt.Counter.get (Stats.counters stats) "stall_cycles" > 0)

let test_crt_decay_prevents_convoy () =
  (* Without CRT decay, hot read lines stay locked by every S-CL: correct but
     slower. With decay the same workload must not be slower. *)
  let run decay =
    let cfg = { (small Config.clear_rw) with Config.crt_decay = decay } in
    Stats.total_cycles (Engine.run_workload cfg Workloads.Bst.workload)
  in
  let with_decay = run true and without = run false in
  Alcotest.(check bool)
    (Printf.sprintf "decay not slower (%d vs %d)" with_decay without)
    true
    (with_decay <= without)

let test_power_token_single () =
  (* PowerTM must behave correctly even with heavy contention. *)
  let w, addr = counter_workload ~delta:1 in
  let cfg = small Config.power_tm in
  let engine = Engine.create cfg w in
  let stats = Engine.run engine in
  let expected = cfg.Config.cores * cfg.Config.ops_per_thread in
  Alcotest.(check int) "commits" expected (Stats.commits stats);
  Alcotest.(check int) "atomicity" expected (Store.read (Engine.store engine) addr)

let test_fig1_in_bounds () =
  let stats = Engine.run_workload (small Config.baseline) Workloads.Stack.workload in
  let r = Stats.fig1_ratio stats in
  Alcotest.(check bool) "ratio within [0,1]" true (r >= 0.0 && r <= 1.0)

let test_total_cycles_positive () =
  let stats = Engine.run_workload (tiny Config.baseline) Workloads.Arrayswap.workload in
  Alcotest.(check bool) "cycles accrue" true (Stats.total_cycles stats > 0);
  Alcotest.(check bool) "instructions retired" true (Stats.instrs stats > 0)

let test_single_core_no_conflicts () =
  let cfg = { (tiny Config.baseline) with Config.cores = 1; ops_per_thread = 50 } in
  let stats = Engine.run_workload cfg Workloads.Hashmap.workload in
  Alcotest.(check int) "no aborts alone" 0 (Stats.aborts stats);
  Alcotest.(check int) "all first-try" 50 (Stats.commits_with_retries stats 0)

let test_every_workload_completes () =
  (* Sweep all benchmarks under the most complex configuration. *)
  List.iter
    (fun (w : Workload.t) ->
      let cfg = { (tiny Config.clear_power) with Config.cores = 4; ops_per_thread = 25 } in
      let stats = Engine.run_workload cfg w in
      Alcotest.(check int) (w.name ^ " commits everything") 100 (Stats.commits stats))
    Workloads.Registry.all

let test_single_core_clear_is_free () =
  (* Metamorphic property: with one core there are no conflicts, so
     discovery never influences timing — CLEAR on/off must give identical
     cycle counts. *)
  let run preset =
    let cfg = { (tiny preset) with Config.cores = 1; ops_per_thread = 80 } in
    Stats.total_cycles (Engine.run_workload cfg Workloads.Bitcoin.workload)
  in
  Alcotest.(check int) "identical cycles" (run Config.baseline) (run Config.clear_rw)

(* ------------------------------------------------------------------ *)
(* SLE front-end (in-core speculation, per-lock fallback) *)

let sle cfg = { cfg with Config.frontend = Config.Sle }

let test_sle_counter_atomicity () =
  let w, addr = counter_workload ~delta:2 in
  let cfg = sle (small Config.baseline) in
  let engine = Engine.create cfg w in
  let stats = Engine.run engine in
  let expected = cfg.Config.cores * cfg.Config.ops_per_thread in
  Alcotest.(check int) "commits" expected (Stats.commits stats);
  Alcotest.(check int) "atomic" (expected * 2) (Store.read (Engine.store engine) addr)

let test_sle_bitcoin_conservation () =
  let w = Workloads.Bitcoin.make ~wallets:16 () in
  let cfg = sle (small Config.clear_power) in
  let engine = Engine.create cfg w in
  let _ = Engine.run engine in
  let store = Engine.store engine in
  let total = ref 0 in
  for i = 0 to 15 do
    total := !total + Store.read store (Store.read store (64 + i))
  done;
  Alcotest.(check int) "coins conserved under SLE+CLEAR" (16 * 10_000) !total

let test_sle_window_bound () =
  (* An AR bigger than the ROB can never complete speculatively under SLE:
     every commit must come from the (per-lock) fallback path. *)
  let big_ar =
    P.build_ar ~id:0 ~name:"oversized" (fun b ->
        let counter = 64 in
        A.ld b ~dst:8 ~base:(I.Imm counter) ~region:"c" ();
        A.add b ~dst:8 (I.Reg 8) (I.Imm 1);
        (* pad far beyond a tiny ROB *)
        for _ = 1 to 64 do
          A.nop b
        done;
        A.st b ~base:(I.Imm counter) ~src:(I.Reg 8) ~region:"c" ();
        A.halt b)
  in
  let w =
    {
      Workload.name = "oversized";
      description = "AR larger than the ROB";
      ars = [ big_ar ];
      memory_words = 128;
      setup = (fun store _ -> Store.write store 64 0);
      make_driver = (fun ~tid:_ ~threads:_ _ _ () -> Workload.op big_ar []);
    }
  in
  let cfg = { (sle (tiny Config.baseline)) with Config.rob_entries = 16; cores = 4; ops_per_thread = 20 } in
  let engine = Engine.create cfg w in
  let stats = Engine.run engine in
  Alcotest.(check int) "all committed" 80 (Stats.commits stats);
  Alcotest.(check int) "all via fallback" 80 (Stats.commits_in_mode stats Stats.Fallback);
  Alcotest.(check int) "counter still atomic" 80 (Store.read (Engine.store engine) 64)

let test_sle_per_lock_independence () =
  (* Two ops on different locks must not explicit-fallback on each other:
     with 2 cores pinned to different locks and retries = 0 (always
     fallback), there are no fallback-related aborts at all. *)
  let ar =
    P.build_ar ~id:0 ~name:"bump" (fun b ->
        A.ld b ~dst:8 ~base:(I.Reg 0) ~region:"c" ();
        A.add b ~dst:8 (I.Reg 8) (I.Imm 1);
        A.st b ~base:(I.Reg 0) ~src:(I.Reg 8) ~region:"c" ();
        A.halt b)
  in
  let w =
    {
      Workload.name = "two-locks";
      description = "disjoint counters under disjoint locks";
      ars = [ ar ];
      memory_words = 256;
      setup =
        (fun store _ ->
          Store.write store 64 0;
          Store.write store 128 0);
      make_driver =
        (fun ~tid ~threads:_ _ _ () -> Workload.op ~lock_id:tid ar [ (0, 64 + (tid * 64)) ]);
    }
  in
  let cfg = { (sle (tiny Config.baseline)) with Config.cores = 2; ops_per_thread = 40; max_retries = 0 } in
  let engine = Engine.create cfg w in
  let stats = Engine.run engine in
  Alcotest.(check int) "commits" 80 (Stats.commits stats);
  Alcotest.(check int) "no explicit fallback aborts" 0
    (Stats.aborts_with_cause stats Check.Abort.Explicit_fallback);
  Alcotest.(check int) "no other-fallback aborts" 0
    (Stats.aborts_with_cause stats Check.Abort.Other_fallback)

let test_sle_clear_converts () =
  let cfg = sle (small Config.clear_rw) in
  let stats = Engine.run_workload cfg Workloads.Arrayswap.workload in
  Alcotest.(check bool) "NS-CL under SLE" true (Stats.commits_in_mode stats Stats.Nscl > 0)

let test_sle_every_workload_completes () =
  List.iter
    (fun (w : Workload.t) ->
      let cfg = { (sle (tiny Config.clear_power)) with Config.cores = 4; ops_per_thread = 15 } in
      let stats = Engine.run_workload cfg w in
      Alcotest.(check int) (w.name ^ " commits everything under SLE") 60 (Stats.commits stats))
    Workloads.Registry.all

let case name f = Alcotest.test_case name `Quick f

let per_preset name f = List.map (fun (l, p) -> case (name ^ " [" ^ l ^ "]") (f (l, p))) presets

(* ------------------------------------------------------------------ *)
(* Allocation budget: the per-event path (event loop, instruction step,
   memory hierarchy) allocates almost nothing; what remains is per
   operation (the driver's op, commit bookkeeping) and per non-L1-hit
   access (the returned outcome). The budgets are the words per popped
   event measured when they were set (9.94 open-loop, 11.01 open-loop
   streamed-checked, 13.48 closed-loop) plus 25%, so putting allocation
   back on the hot path fails here and not only in the benchmark. *)

let words_per_event engine =
  ignore (Engine.run engine : Stats.t);
  let perf = Engine.perfctr engine in
  float_of_int perf.Simrt.Perfctr.allocated_words /. float_of_int perf.Simrt.Perfctr.events_popped

let check_budget name ~budget w =
  if w > budget then Alcotest.failf "%s allocates %.2f words per event, budget %.2f" name w budget

(* One 5 000-request point of the benchmark's open-loop serving shape:
   CLEAR at retry limit 1, Poisson arrivals, arrayswap over 2^17 keys. *)
let open_point_cfg =
  Config.with_openloop
    (Config.with_seed (Config.with_retries Config.clear_rw 1) 42)
    (Some
       {
         Config.open_rate = 50.0;
         open_requests = 5_000;
         open_process = Config.Open_poisson;
         open_queue_cap = 0;
       })

let open_point_workload () = Workloads.Registry.open_scaled "arrayswap" ~keys:(1 lsl 17) ~theta:6.0

let test_alloc_open_point () =
  check_budget "open-loop arrayswap" ~budget:12.4
    (words_per_event (Engine.create open_point_cfg (open_point_workload ())))

(* The same point checked online, as the benchmark's [checked] workload
   runs it: the streaming oracles behind a streaming collector, static gate
   included. A commit lends its capture buffer to the checker, which keeps
   only ints, so checking adds little beyond the lock-event records.
   Building the witness lists again on every commit reads 15.9 here. *)
let test_alloc_streamed_point () =
  let cores = open_point_cfg.Config.cores in
  let str =
    Check.Stream.create ~static_gate:(Clear_repro.Run.static_gate_of_config open_point_cfg) ~cores ()
  in
  let check = Check.Collector.create_streaming ~cores (Check.Stream.sink str) in
  check_budget "streamed-checked open-loop arrayswap" ~budget:13.8
    (words_per_event (Engine.create ~check open_point_cfg (open_point_workload ())))

(* One closed-loop paper-protocol sim: 16 cores contending under CLEAR, so
   discovery, cacheline locking and the fallback path all run. *)
let test_alloc_closed_sim () =
  let cfg = Config.with_seed { Config.clear_rw with Config.cores = 16; ops_per_thread = 40 } 42 in
  check_budget "closed-loop bitcoin" ~budget:16.8
    (words_per_event (Engine.create cfg (Workloads.Registry.find "bitcoin")))

(* Major-heap budget: a finished engine's cache, directory, store and
   conflict-map pages go back to the domain's page pool, and the next
   engine takes them from there instead of allocating them in the major
   heap. So the second of two back-to-back 16-core sims allocates little
   directly in the major heap (major words not promoted from the minor
   heap): only its store's chunk table. The budget is the words measured
   when it was set (1 025) plus 25%; without the pool the second sim
   allocates 114 378 words there. *)
let direct_major_words f =
  let _, promoted0, major0 = Gc.counters () in
  f ();
  let _, promoted1, major1 = Gc.counters () in
  int_of_float (major1 -. major0 -. (promoted1 -. promoted0))

let test_major_heap_budget () =
  let cfg = Config.with_seed { Config.clear_rw with Config.cores = 16; ops_per_thread = 40 } 42 in
  let sim () = ignore (Engine.run_workload cfg (Workloads.Registry.find "labyrinth") : Stats.t) in
  sim ();
  let words = direct_major_words sim in
  let budget = 1_280 in
  if words > budget then
    Alcotest.failf "second labyrinth sim allocates %d words directly in the major heap, budget %d"
      words budget

(* Page pool reuse cannot be seen in the results: a sim run right after
   another one on the same domain, whose pages it then reuses, reports
   what it reports when it runs first. Each sequence runs on a fresh
   domain, so its pool starts empty. The pairs differ in cache geometry
   (so only directory, store and conflict-map pages carry over) or share
   it (so cache pages full of the first sim's tags carry over too). *)
let fingerprint stats =
  ( (Stats.total_cycles stats, Stats.commits stats, Stats.aborts stats, Stats.instrs stats),
    Stats.wasted_instrs stats,
    List.map (Stats.commits_in_mode stats) Stats.all_commit_modes,
    List.sort compare (Simrt.Counter.to_list (Stats.counters stats)) )

let on_fresh_domain f = Domain.join (Domain.spawn f)

let test_pool_reuse_invisible () =
  let closed preset = Config.with_seed { preset with Config.cores = 16; ops_per_thread = 40 } 7 in
  let pairs =
    [
      ( "tiny caches, then icelake",
        ({ (closed Config.clear_rw) with Config.mem_params = Mem.Params.tiny }, "bitcoin"),
        (closed Config.clear_rw, "bitcoin") );
      ( "labyrinth/C, then hashmap/W-SLE",
        (closed Config.clear_rw, "labyrinth"),
        (sle (closed Config.clear_power), "hashmap") );
    ]
  in
  List.iter
    (fun (name, (cfg1, w1), (cfg2, w2)) ->
      let run cfg w = fingerprint (Engine.run_workload cfg (Workloads.Registry.find w)) in
      let first = on_fresh_domain (fun () -> run cfg2 w2) in
      let second =
        on_fresh_domain (fun () ->
            ignore (run cfg1 w1);
            run cfg2 w2)
      in
      Alcotest.(check bool) (name ^ ": stats equal the sim's run first") true (first = second))
    pairs

let () =
  Alcotest.run "engine"
    [
      ( "semantics",
        [
          case "counter exact [B]" (test_counter_exact Config.baseline);
          case "counter exact [P]" (test_counter_exact Config.power_tm);
          case "counter exact [C]" (test_counter_exact Config.clear_rw);
          case "counter exact [W]" (test_counter_exact Config.clear_power);
          case "single core, no conflicts" test_single_core_no_conflicts;
          case "single core: CLEAR is free" test_single_core_clear_is_free;
          case "cycles accrue" test_total_cycles_positive;
        ] );
      ( "determinism",
        [
          case "same seed, same run" test_determinism;
          case "seed sensitivity" test_seed_changes_outcome;
          case "golden fingerprints (pre-rewrite engine)" test_golden_fingerprints;
          case "golden event counts" test_golden_event_counts;
          case "golden access counts" test_golden_access_counts;
          case "golden emission counts" test_golden_emission_counts;
        ] );
      ( "atomicity",
        per_preset "bitcoin conservation" test_bitcoin_conservation
        @ per_preset "mwobject sums" test_mwobject_sums
        @ per_preset "sorted-list invariant" test_sorted_list_invariant
        @ per_preset "bst invariant" test_bst_invariant
        @ per_preset "queue invariant" test_queue_invariant
        @ per_preset "stack invariant" test_stack_invariant );
      ( "clear",
        [
          case "NS-CL for immutable" test_nscl_used_for_immutable;
          case "S-CL for likely immutable" test_scl_used_for_likely_immutable;
          case "no CL modes when disabled" test_no_cl_modes_when_disabled;
          case "fewer aborts" test_clear_reduces_aborts;
          case "more single-retry commits" test_clear_improves_single_retry;
          case "failed-mode discovery ablation" test_failed_mode_discovery_ablation;
          case "spec requests stall on locks" test_spec_requests_stall_on_locked_lines;
          case "CRT decay prevents convoy" test_crt_decay_prevents_convoy;
        ] );
      ( "fallback+power",
        [
          case "fallback path atomic" test_fallback_under_zero_retries;
          case "powertm atomic" test_power_token_single;
          case "fig1 bounded" test_fig1_in_bounds;
        ] );
      ( "sle",
        [
          case "counter atomicity" test_sle_counter_atomicity;
          case "bitcoin conservation" test_sle_bitcoin_conservation;
          case "ROB window bound" test_sle_window_bound;
          case "per-lock independence" test_sle_per_lock_independence;
          case "CLEAR converts under SLE" test_sle_clear_converts;
          case "every workload completes" test_sle_every_workload_completes;
        ] );
      ("sweep", [ case "every workload completes" test_every_workload_completes ]);
      ( "allocation",
        [
          case "open-loop point within budget" test_alloc_open_point;
          case "streamed-checked open-loop point within budget" test_alloc_streamed_point;
          case "closed-loop sim within budget" test_alloc_closed_sim;
          case "second sim within major-heap budget" test_major_heap_budget;
        ] );
      ("page pool", [ case "reuse leaves results unchanged" test_pool_reuse_invisible ]);
    ]
