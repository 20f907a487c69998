(* The execution oracle: unit tests of the three checkers on hand-built
   histories, plus end-to-end runs — including one with an injected
   conflict-detection bug the oracle must catch. *)

module Engine = Machine.Engine
module Config = Machine.Config
module Stats = Machine.Stats
module Workload = Machine.Workload
module Trace = Machine.Trace
module Store = Mem.Store
module I = Isa.Instr
module P = Isa.Program
module Run = Clear_repro.Run

let halt_ar = P.make_ar ~id:0 ~name:"noop" [| I.Halt |]

let witness ?(seq = 0) ?(time = 0) ?(core = 0) ?(mode = Check.Witness.Speculative) ?(reads = [])
    ?(writes = []) ?(stores = []) ?(ar = halt_ar) () =
  { Check.Witness.seq; time; core; ar; init_regs = []; mode; retries = 0; reads; writes; stores }

(* Lifecycle events with the fields lock safety ignores filled in. *)
let attempt_begin ~time ~core =
  Check.Lock_safety.Attempt_begin { time; core; ar = halt_ar; mode = Check.Witness.Speculative; attempt = 0 }

let attempt_end ~time ~core =
  Check.Lock_safety.Attempt_end
    { time; core; outcome = Committed { mode = Check.Witness.Speculative; retries = 0 } }

let contains_sub haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Serializability checker *)

let check_serial ws = Check.Serial.check ws

let test_serial_accepts_serial_history () =
  (* A commits a buffered write at t=10; B reads the line afterwards. *)
  let a = witness ~seq:0 ~time:10 ~core:0 ~writes:[ (1, 5) ] ~stores:[ (8, 1) ] () in
  let b = witness ~seq:1 ~time:30 ~core:1 ~reads:[ (1, 20) ] () in
  Alcotest.(check bool) "serial history accepted" true (Result.is_ok (check_serial [ a; b ]))

let test_serial_rejects_read_stale () =
  (* B read the line before A's write became visible, yet commits after A:
     the classic lost-update shape. *)
  let a = witness ~seq:0 ~time:10 ~core:0 ~writes:[ (1, 5) ] () in
  let b = witness ~seq:1 ~time:30 ~core:1 ~reads:[ (1, 5) ] ~writes:[ (1, 6) ] () in
  match check_serial [ a; b ] with
  | Ok () -> Alcotest.fail "stale read not detected"
  | Error v ->
      Alcotest.(check bool) "kind is Rw" true (v.Check.Serial.kind = Check.Serial.Rw);
      Alcotest.(check int) "on line 1" 1 v.Check.Serial.line

let test_serial_rejects_write_order_inversion () =
  (* Two direct-mode writers whose visibility order contradicts commit
     order: the earlier commit's value survives in memory. *)
  let a = witness ~seq:0 ~time:30 ~core:0 ~mode:Check.Witness.Nscl ~writes:[ (2, 20) ] () in
  let b = witness ~seq:1 ~time:40 ~core:1 ~mode:Check.Witness.Fallback ~writes:[ (2, 10) ] () in
  match check_serial [ a; b ] with
  | Ok () -> Alcotest.fail "write-order inversion not detected"
  | Error v -> Alcotest.(check bool) "kind is Ww" true (v.Check.Serial.kind = Check.Serial.Ww)

let test_serial_rejects_future_read () =
  (* A committed first but read the line after B's direct write became
     visible: A observed data from a transaction serialized after it. *)
  let a = witness ~seq:0 ~time:60 ~core:0 ~reads:[ (3, 50) ] () in
  let b = witness ~seq:1 ~time:70 ~core:1 ~mode:Check.Witness.Nscl ~writes:[ (3, 30) ] () in
  match check_serial [ a; b ] with
  | Ok () -> Alcotest.fail "future read not detected"
  | Error v -> Alcotest.(check bool) "kind is Wr" true (v.Check.Serial.kind = Check.Serial.Wr)

let test_serial_wr_fields () =
  (* The Wr arm must report the reader as the earlier node, the writer as
     the later one, and quote both times. *)
  let a = witness ~seq:0 ~time:60 ~core:0 ~reads:[ (3, 50) ] () in
  let b = witness ~seq:1 ~time:70 ~core:1 ~mode:Check.Witness.Nscl ~writes:[ (3, 30) ] () in
  match check_serial [ a; b ] with
  | Ok () -> Alcotest.fail "future read not detected"
  | Error v ->
      Alcotest.(check bool) "kind is Wr" true (v.Check.Serial.kind = Check.Serial.Wr);
      Alcotest.(check int) "line" 3 v.Check.Serial.line;
      Alcotest.(check int) "earlier is the reader" 0 v.Check.Serial.earlier.Check.Witness.seq;
      Alcotest.(check int) "later is the writer" 1 v.Check.Serial.later.Check.Witness.seq;
      Alcotest.(check bool) "detail quotes the read time" true
        (contains_sub v.Check.Serial.detail "t=50");
      Alcotest.(check bool) "detail quotes the visibility" true
        (contains_sub v.Check.Serial.detail "t=30")

let test_serial_wr_self_read_excluded () =
  (* A direct-mode witness that reads its own line after its first write has
     tr > vis against itself — same commit, no cycle; the seq guard must
     exclude it. *)
  let w =
    witness ~seq:0 ~time:60 ~core:0 ~mode:Check.Witness.Nscl ~reads:[ (3, 50) ]
      ~writes:[ (3, 30) ] ()
  in
  Alcotest.(check bool) "own later read not a Wr" true (Result.is_ok (check_serial [ w ]));
  (* ...and the state it leaves behind still works for later commits. *)
  let c = witness ~seq:1 ~time:80 ~core:1 ~reads:[ (3, 70) ] () in
  Alcotest.(check bool) "subsequent read of the written line clean" true
    (Result.is_ok (check_serial [ w; c ]))

let test_serial_wr_boundaries () =
  (* Reads strictly before — or exactly at — the later writer's visibility
     do not close a Wr cycle (ties are benign, DESIGN.md §9). *)
  let before = witness ~seq:0 ~time:60 ~core:0 ~reads:[ (3, 20) ] () in
  let tie = witness ~seq:0 ~time:60 ~core:0 ~reads:[ (3, 30) ] () in
  let wr = witness ~seq:1 ~time:70 ~core:1 ~mode:Check.Witness.Nscl ~writes:[ (3, 30) ] () in
  Alcotest.(check bool) "read before visibility ok" true (Result.is_ok (check_serial [ before; wr ]));
  Alcotest.(check bool) "read at visibility (tie) ok" true (Result.is_ok (check_serial [ tie; wr ]))

let test_serial_buffered_concurrent_ok () =
  (* Buffered writers that both read before either commit are fine as long
     as neither read the other's line. *)
  let a = witness ~seq:0 ~time:10 ~core:0 ~reads:[ (1, 2) ] ~writes:[ (1, 3) ] () in
  let b = witness ~seq:1 ~time:11 ~core:1 ~reads:[ (2, 2) ] ~writes:[ (2, 3) ] () in
  Alcotest.(check bool) "disjoint lines accepted" true (Result.is_ok (check_serial [ a; b ]))

(* ------------------------------------------------------------------ *)
(* Lock safety *)

let ls = Check.Lock_safety.check ~cores:4

let test_locks_clean_sequence () =
  let events =
    [
      attempt_begin ~time:0 ~core:0;
      Check.Lock_safety.Lock { time = 1; core = 0; line = 10; key = 1 };
      Check.Lock_safety.Lock { time = 2; core = 0; line = 20; key = 5 };
      Check.Lock_safety.Unlock { time = 9; core = 0; line = 10 };
      Check.Lock_safety.Unlock { time = 9; core = 0; line = 20 };
      attempt_end ~time:9 ~core:0;
    ]
  in
  Alcotest.(check bool) "clean sequence passes" true (Result.is_ok (ls events))

let test_locks_mutual_exclusion () =
  let events =
    [
      attempt_begin ~time:0 ~core:0;
      attempt_begin ~time:0 ~core:1;
      Check.Lock_safety.Lock { time = 1; core = 0; line = 10; key = 1 };
      Check.Lock_safety.Lock { time = 2; core = 1; line = 10; key = 1 };
    ]
  in
  Alcotest.(check bool) "double lock rejected" true (Result.is_error (ls events))

let test_locks_lexicographic_order () =
  let events =
    [
      attempt_begin ~time:0 ~core:0;
      Check.Lock_safety.Lock { time = 1; core = 0; line = 10; key = 5 };
      Check.Lock_safety.Lock { time = 2; core = 0; line = 20; key = 1 };
    ]
  in
  Alcotest.(check bool) "key order violation rejected" true (Result.is_error (ls events));
  (* ...but the order resets between attempts. *)
  let events =
    [
      attempt_begin ~time:0 ~core:0;
      Check.Lock_safety.Lock { time = 1; core = 0; line = 10; key = 5 };
      Check.Lock_safety.Unlock { time = 2; core = 0; line = 10 };
      attempt_end ~time:2 ~core:0;
      attempt_begin ~time:3 ~core:0;
      Check.Lock_safety.Lock { time = 4; core = 0; line = 20; key = 1 };
      Check.Lock_safety.Unlock { time = 5; core = 0; line = 20 };
      attempt_end ~time:5 ~core:0;
    ]
  in
  Alcotest.(check bool) "key order resets per attempt" true (Result.is_ok (ls events))

let test_locks_leak_detected () =
  let leak_past_attempt =
    [
      attempt_begin ~time:0 ~core:2;
      Check.Lock_safety.Lock { time = 1; core = 2; line = 10; key = 1 };
      attempt_end ~time:5 ~core:2;
    ]
  in
  Alcotest.(check bool) "leak past attempt end rejected" true (Result.is_error (ls leak_past_attempt));
  let leak_past_run =
    [
      attempt_begin ~time:0 ~core:2;
      Check.Lock_safety.Lock { time = 1; core = 2; line = 10; key = 1 };
    ]
  in
  Alcotest.(check bool) "leak past end of run rejected" true (Result.is_error (ls leak_past_run));
  let stray_unlock = [ Check.Lock_safety.Unlock { time = 1; core = 0; line = 7 } ] in
  Alcotest.(check bool) "stray unlock rejected" true (Result.is_error (ls stray_unlock))

(* ------------------------------------------------------------------ *)
(* Replay oracle *)

let store_ar =
  (* M[0] <- 5 *)
  P.make_ar ~id:1 ~name:"store5"
    [|
      I.Mov { dst = 1; src = I.Imm 5 };
      I.St { base = I.Imm 0; off = 0; src = I.Reg 1; region = "t" };
      I.Halt;
    |]

let image_of words = Mem.Store.image_of_array words

let test_replay_accepts_faithful_history () =
  let w = witness ~ar:store_ar ~writes:[ (0, 1) ] ~stores:[ (0, 5) ] () in
  let initial = image_of (Array.make 16 0) in
  let final = Array.make 16 0 in
  final.(0) <- 5;
  let final = image_of final in
  Alcotest.(check bool) "faithful history accepted" true
    (Result.is_ok (Posthoc.replay ~initial ~entries:[ Posthoc.Commit w ] ~final))

let test_replay_detects_store_mismatch () =
  (* The witness claims the simulation drained M[0] <- 6; the body stores 5. *)
  let w = witness ~ar:store_ar ~writes:[ (0, 1) ] ~stores:[ (0, 6) ] () in
  let initial = image_of (Array.make 16 0) in
  let final = Array.make 16 0 in
  final.(0) <- 6;
  let final = image_of final in
  match Posthoc.replay ~initial ~entries:[ Posthoc.Commit w ] ~final with
  | Error (Check.Replay.Store_mismatch _) -> ()
  | Error d ->
      Alcotest.failf "wrong divergence: %s" (Format.asprintf "%a" Check.Replay.pp_divergence d)
  | Ok () -> Alcotest.fail "store mismatch not detected"

let test_replay_detects_memory_mismatch () =
  (* Store logs agree but the final image contains a word nobody wrote. *)
  let w = witness ~ar:store_ar ~writes:[ (0, 1) ] ~stores:[ (0, 5) ] () in
  let initial = image_of (Array.make 16 0) in
  let final = Array.make 16 0 in
  final.(0) <- 5;
  final.(9) <- 123;
  let final = image_of final in
  match Posthoc.replay ~initial ~entries:[ Posthoc.Commit w ] ~final with
  | Error (Check.Replay.Memory_mismatch { addr; differing; _ }) ->
      Alcotest.(check int) "first differing word" 9 addr;
      Alcotest.(check int) "one differing word" 1 differing
  | Error _ -> Alcotest.fail "wrong divergence kind"
  | Ok () -> Alcotest.fail "memory mismatch not detected"

let test_replay_applies_driver_writes () =
  let w = witness ~ar:store_ar ~writes:[ (0, 1) ] ~stores:[ (0, 5) ] () in
  let initial = image_of (Array.make 16 0) in
  let final = Array.make 16 0 in
  final.(0) <- 5;
  final.(12) <- 7;
  let final = image_of final in
  let entries = [ Posthoc.Driver_writes [ (12, 7) ]; Posthoc.Commit w ] in
  Alcotest.(check bool) "driver writes reach the replay image" true
    (Result.is_ok (Posthoc.replay ~initial ~entries ~final))

(* The live cursor replays on the simulation's own store, filing the words
   the simulation changes ahead of the replay. It must reach the verdict
   the image-based replay reaches over the same history: a faithful commit
   and driver write pass, a stray write and a wrong store log are caught
   with the same report, and a word written back to its old value is not a
   difference. *)
let test_replay_live_matches_image () =
  let run_both ~sim_commit_value ~log_value =
    let store = Store.create ~words:16 in
    let initial = Store.snapshot store in
    let cur = Check.Replay.attach store in
    let w = witness ~ar:store_ar ~writes:[ (0, 1) ] ~stores:[ (0, log_value) ] () in
    Store.write store 12 7;
    Check.Replay.apply_driver_writes cur [ (12, 7) ];
    Store.write store 0 sim_commit_value;
    let buf = Check.Capbuf.create () in
    Check.Capbuf.load buf w;
    let stepped = Check.Replay.step cur buf in
    Store.write store 3 4;
    Store.write store 3 0;
    Store.write store 9 123;
    let final = Store.snapshot store in
    let live = match stepped with Error _ as e -> e | Ok () -> Check.Replay.finish cur ~final in
    let entries = [ Posthoc.Driver_writes [ (12, 7) ]; Posthoc.Commit w ] in
    (live, Posthoc.replay ~initial ~entries ~final)
  in
  let live, image = run_both ~sim_commit_value:5 ~log_value:5 in
  (match live with
  | Error (Check.Replay.Memory_mismatch { addr = 9; replayed = 0; simulated = 123; differing = 1 }) -> ()
  | _ -> Alcotest.fail "live replay missed the stray write");
  Alcotest.(check bool) "stray write: same report" true (live = image);
  let live, image = run_both ~sim_commit_value:6 ~log_value:6 in
  (match live with
  | Error (Check.Replay.Store_mismatch { index = 0; _ }) -> ()
  | _ -> Alcotest.fail "live replay missed the store mismatch");
  Alcotest.(check bool) "store mismatch: same report" true (live = image)

(* ------------------------------------------------------------------ *)
(* End-to-end: checked real runs *)

let small cfg = { cfg with Config.cores = 4; ops_per_thread = 40; memory_words = 1 lsl 16 }

let test_checked_run_clean () =
  List.iter
    (fun (label, cfg) ->
      let sim = { Run.cfg = small cfg; workload = Workloads.Mwobject.workload; seed = 7 } in
      let _stats, verdict = Posthoc.run_sim_checked sim in
      if not (Check.Verdict.ok verdict) then
        Alcotest.failf "%s: %s" label (Check.Verdict.to_string verdict))
    [
      ("B", Config.baseline);
      ("P", Config.power_tm);
      ("C", Config.clear_rw);
      ("W", Config.clear_power);
    ]

let test_check_does_not_perturb () =
  (* Witness capture must not change the simulation: stats are identical
     with and without the collector. *)
  let sim = { Run.cfg = small Config.clear_power; workload = Workloads.Bst.workload; seed = 11 } in
  let plain = Run.run_sim sim in
  let checked, verdict = Posthoc.run_sim_checked sim in
  Alcotest.(check bool) "verdict clean" true (Check.Verdict.ok verdict);
  Alcotest.(check int) "same cycles" (Stats.total_cycles plain) (Stats.total_cycles checked);
  Alcotest.(check int) "same commits" (Stats.commits plain) (Stats.commits checked);
  Alcotest.(check int) "same aborts" (Stats.aborts plain) (Stats.aborts checked)

(* A shared-counter workload: every AR increments M[0] once. Serializable
   executions end with M[0] = total commits. *)
let counter_workload =
  let ar =
    P.make_ar ~id:0 ~name:"incr"
      [|
        I.Ld { dst = 1; base = I.Imm 0; off = 0; region = "ctr" };
        I.Binop { op = I.Add; dst = 1; a = I.Reg 1; b = I.Imm 1 };
        I.St { base = I.Imm 0; off = 0; src = I.Reg 1; region = "ctr" };
        I.Halt;
      |]
  in
  {
    Workload.name = "counter";
    description = "shared counter increment";
    ars = [ ar ];
    memory_words = 256;
    setup = (fun _ _ -> ());
    make_driver = (fun ~tid:_ ~threads:_ _ _ () -> Workload.op ar []);
  }

let test_injected_bug_caught () =
  (* Disable conflict detection on the counter's line: concurrent increments
     race undetected and updates are lost. The oracle must notice what the
     engine no longer can. A correct HTM never loses an update, so first
     confirm the unfaulted run is clean and conserves the count. *)
  let cfg = { (small Config.baseline) with Config.ops_per_thread = 80 } in
  let clean_sim = { Run.cfg; workload = counter_workload; seed = 5 } in
  let _stats, verdict = Posthoc.run_sim_checked clean_sim in
  Alcotest.(check bool) "control run clean" true (Check.Verdict.ok verdict);
  (let engine = Engine.create (Config.with_seed cfg 5) counter_workload in
   let stats = Engine.run engine in
   Alcotest.(check int) "control conserves count" (Stats.commits stats)
     (Store.read (Engine.store engine) 0));
  let faulty = { cfg with Config.fault_blind_line = Some 0 } in
  let _stats, verdict = Posthoc.run_sim_checked { clean_sim with Run.cfg = faulty } in
  Alcotest.(check bool) "injected bug caught" true (not (Check.Verdict.ok verdict));
  (* Lost updates manifest as a stale read (serializability) and as a replay
     divergence; the lock oracle has nothing to complain about. *)
  Alcotest.(check bool) "serializability flagged" true
    (Result.is_error verdict.Check.Verdict.serial);
  Alcotest.(check bool) "replay flagged" true (Result.is_error verdict.Check.Verdict.replay)

let test_checked_batch_raises () =
  let cfg =
    { (small Config.baseline) with Config.ops_per_thread = 80; fault_blind_line = Some 0 }
  in
  match Run.batch ~check:true (Run.sims cfg counter_workload ~seeds:[ 5 ]) with
  | _ -> Alcotest.fail "expected Check_failed"
  | exception Run.Check_failed msg ->
      Alcotest.(check bool) "message names the workload" true (contains_sub msg "counter")

let test_suite_checked_smoke () =
  let opts =
    {
      Clear_repro.Experiments.cores = 4;
      ops_per_thread = 30;
      seeds = [ 3 ];
      trim = 0;
      retry_choices = [ 2 ];
    sched = Sched.Profile.symmetric;
    }
  in
  let suite =
    Clear_repro.Experiments.run_suite ~jobs:2 ~check:true
      ~workloads:[ Workloads.Stack.workload; Workloads.Mwobject.workload ]
      opts
  in
  Alcotest.(check int) "two rows" 2 (List.length suite.Clear_repro.Experiments.rows)

(* ------------------------------------------------------------------ *)
(* Streaming checker: Check.Stream fed the same emissions must agree with
   the post hoc oracles — on hand-built histories and on full engine runs —
   while retiring state behind the committed frontier. *)

(* Replay a hand-built history through a Stream in engine order: each
   witness's attempt events and commit merged into one non-decreasing time
   stream, commits before same-cycle attempt ends (the engine's order). *)
let stream_over ?(sweep_every = 1) ws =
  let begin_of (w : Check.Witness.t) =
    List.fold_left
      (fun acc (_, t) -> min acc t)
      w.Check.Witness.time
      (w.Check.Witness.reads @ w.Check.Witness.writes)
  in
  let events =
    List.concat_map
      (fun (w : Check.Witness.t) ->
        [ (begin_of w, `Begin w); (w.Check.Witness.time, `Commit w); (w.Check.Witness.time, `End w) ])
      ws
  in
  let events = List.stable_sort (fun (t1, _) (t2, _) -> Int.compare t1 t2) events in
  let str = Check.Stream.create ~sweep_every ~cores:8 () in
  Check.Stream.set_initial str (image_of (Array.make 16 0));
  List.iter
    (fun (t, e) ->
      match e with
      | `Begin (w : Check.Witness.t) ->
          Check.Stream.add_lock_event str
            (attempt_begin ~time:t ~core:w.Check.Witness.core)
      | `Commit w -> Check.Stream.add_witness str w
      | `End (w : Check.Witness.t) ->
          Check.Stream.add_lock_event str
            (attempt_end ~time:t ~core:w.Check.Witness.core))
    events;
  (Check.Stream.finish str ~final:(image_of (Array.make 16 0)), Check.Stream.stats str)

let serial_fingerprint = function
  | Ok () -> None
  | Error v ->
      Some
        ( v.Check.Serial.kind,
          v.Check.Serial.line,
          v.Check.Serial.earlier.Check.Witness.seq,
          v.Check.Serial.later.Check.Witness.seq )

let test_stream_matches_serial_on_unit_histories () =
  let histories =
    [
      ( "serial",
        [
          witness ~seq:0 ~time:10 ~core:0 ~writes:[ (1, 5) ] ~stores:[] ();
          witness ~seq:1 ~time:30 ~core:1 ~reads:[ (1, 20) ] ();
        ] );
      ( "rw",
        [
          witness ~seq:0 ~time:10 ~core:0 ~writes:[ (1, 5) ] ();
          witness ~seq:1 ~time:30 ~core:1 ~reads:[ (1, 5) ] ~writes:[ (1, 6) ] ();
        ] );
      ( "ww",
        [
          witness ~seq:0 ~time:30 ~core:0 ~mode:Check.Witness.Nscl ~writes:[ (2, 20) ] ();
          witness ~seq:1 ~time:40 ~core:1 ~mode:Check.Witness.Fallback ~writes:[ (2, 10) ] ();
        ] );
      ( "wr",
        [
          witness ~seq:0 ~time:60 ~core:0 ~reads:[ (3, 50) ] ();
          witness ~seq:1 ~time:70 ~core:1 ~mode:Check.Witness.Nscl ~writes:[ (3, 30) ] ();
        ] );
      ( "disjoint",
        [
          witness ~seq:0 ~time:10 ~core:0 ~reads:[ (1, 2) ] ~writes:[ (1, 3) ] ();
          witness ~seq:1 ~time:11 ~core:1 ~reads:[ (2, 2) ] ~writes:[ (2, 3) ] ();
        ] );
    ]
  in
  List.iter
    (fun (label, ws) ->
      let posthoc = serial_fingerprint (Check.Serial.check ws) in
      List.iter
        (fun sweep_every ->
          let results, _stats = stream_over ~sweep_every ws in
          Alcotest.(check bool)
            (Printf.sprintf "%s sweep_every=%d agrees" label sweep_every)
            true
            (serial_fingerprint results.Check.Stream.serial = posthoc);
          Alcotest.(check bool)
            (Printf.sprintf "%s replay clean" label)
            true
            (Result.is_ok results.Check.Stream.replay);
          Alcotest.(check bool)
            (Printf.sprintf "%s locks clean" label)
            true
            (Result.is_ok results.Check.Stream.locks))
        [ 1; 2; 512 ])
    histories

let test_stream_retires_behind_frontier () =
  (* 1000 back-to-back attempts, each touching its own pair of lines (one
     read-only, one written): nothing ever overwrites that state, so a post
     hoc checker would hold 2000 entries — the frontier passes each commit
     as soon as the next attempt begins, so the stream retires nearly
     everything and peak live state is bounded by the sweep window, not the
     history. *)
  let n = 1000 in
  let ws =
    List.init n (fun i ->
        witness ~seq:i
          ~time:((i * 10) + 9)
          ~core:(i mod 4)
          ~reads:[ (2 * i, (i * 10) + 1); ((2 * i) + 1, (i * 10) + 2) ]
          ~writes:[ ((2 * i) + 1, (i * 10) + 5) ]
          ())
  in
  Alcotest.(check bool) "history is serializable" true (Result.is_ok (Check.Serial.check ws));
  let results, stats = stream_over ~sweep_every:8 ws in
  Alcotest.(check bool) "stream agrees" true (Result.is_ok results.Check.Stream.serial);
  Alcotest.(check int) "all commits seen" n stats.Check.Stream.commits;
  Alcotest.(check bool) "live lines bounded by the sweep window" true
    (stats.Check.Stream.peak_live_lines <= (2 * 8) + 2);
  Alcotest.(check bool) "live entries bounded by the sweep window" true
    (stats.Check.Stream.peak_live_entries <= (2 * 8) + 2);
  Alcotest.(check bool) "nearly all entries retired" true
    (stats.Check.Stream.retired >= (2 * n) - 20)

let test_stream_sweep_every_validated () =
  Alcotest.check_raises "sweep_every < 1 rejected"
    (Invalid_argument "Stream.create: sweep_every must be >= 1") (fun () ->
      ignore (Check.Stream.create ~sweep_every:0 ~cores:4 ()))

let test_stream_requires_initial () =
  let str = Check.Stream.create ~cores:4 () in
  Check.Stream.add_witness str (witness ~seq:0 ~time:10 ~core:0 ());
  Alcotest.check_raises "finish without initial snapshot"
    (Invalid_argument "Stream.finish: no initial snapshot was fed") (fun () ->
      ignore (Check.Stream.finish str ~final:(image_of (Array.make 16 0))))

(* The configuration `clear_sim check --cores N --ops M` runs (seed 42,
   retry limit 4). *)
let cli_cfg preset ~cores ~ops =
  { preset with Config.cores; ops_per_thread = ops; seed = 42; max_retries = 4 }

let test_stream_end_to_end_agreement () =
  (* Whole-engine runs: the streaming verdict must equal the post hoc
     reference's — same report, byte for byte — on clean runs of all four
     presets, and on the CLI check grid's points. *)
  List.iter
    (fun (label, sim) ->
      let _stats, posthoc = Posthoc.run_sim_checked sim in
      let _stats, streamed = Run.run_sim_checked sim in
      Alcotest.(check bool) (label ^ " both clean") true
        (Check.Verdict.ok posthoc && Check.Verdict.ok streamed);
      Alcotest.(check string) (label ^ " same report") (Check.Verdict.to_string posthoc)
        (Check.Verdict.to_string streamed))
    (List.map
       (fun (label, cfg) ->
         (label, { Run.cfg = small cfg; workload = Workloads.Mwobject.workload; seed = 7 }))
       [
         ("B", Config.baseline);
         ("P", Config.power_tm);
         ("C", Config.clear_rw);
         ("W", Config.clear_power);
       ]
    @ List.map
        (fun (label, cfg, workload) ->
          (label, { Run.cfg = cli_cfg cfg ~cores:4 ~ops:30; workload; seed = 42 }))
        [
          ("mwobject W", Config.clear_power, Workloads.Mwobject.workload);
          ("labyrinth C", Config.clear_rw, Workloads.Labyrinth.workload);
          ("stack B", Config.baseline, Workloads.Stack.workload);
        ])

let test_stream_catches_injected_bug () =
  (* The fault_blind_line bug from test_injected_bug_caught must fail the
     streaming path identically: same oracles flagged, same report — on the
     counter workload and on the CLI fault point (mwobject B, 8 cores, 80
     ops, line 8 blind). *)
  List.iter
    (fun (label, sim) ->
      let _stats, posthoc = Posthoc.run_sim_checked sim in
      let _stats, streamed = Run.run_sim_checked sim in
      Alcotest.(check bool) (label ^ ": posthoc flags the bug") true (not (Check.Verdict.ok posthoc));
      Alcotest.(check bool) (label ^ ": stream flags the bug") true (not (Check.Verdict.ok streamed));
      Alcotest.(check string) (label ^ ": identical failure report")
        (Check.Verdict.to_string posthoc) (Check.Verdict.to_string streamed))
    [
      ( "counter",
        {
          Run.cfg =
            { (small Config.baseline) with Config.ops_per_thread = 80; fault_blind_line = Some 0 };
          workload = counter_workload;
          seed = 5;
        } );
      ( "mwobject B",
        {
          Run.cfg =
            { (cli_cfg Config.baseline ~cores:8 ~ops:80) with Config.fault_blind_line = Some 8 };
          workload = Workloads.Mwobject.workload;
          seed = 42;
        } );
    ]

let test_stream_does_not_perturb () =
  (* The observation-only contract extends to streaming: stats are
     bit-identical to the unchecked run. *)
  let sim = { Run.cfg = small Config.clear_power; workload = Workloads.Bst.workload; seed = 11 } in
  let plain = Run.run_sim sim in
  let streamed, verdict = Run.run_sim_checked sim in
  Alcotest.(check bool) "verdict clean" true (Check.Verdict.ok verdict);
  Alcotest.(check int) "same cycles" (Stats.total_cycles plain) (Stats.total_cycles streamed);
  Alcotest.(check int) "same commits" (Stats.commits plain) (Stats.commits streamed);
  Alcotest.(check int) "same aborts" (Stats.aborts plain) (Stats.aborts streamed)

let test_stream_suite_smoke () =
  let opts =
    {
      Clear_repro.Experiments.cores = 4;
      ops_per_thread = 30;
      seeds = [ 3 ];
      trim = 0;
      retry_choices = [ 2 ];
      sched = Sched.Profile.symmetric;
    }
  in
  let workloads = [ Workloads.Stack.workload; Workloads.Mwobject.workload ] in
  let run check = Clear_repro.Experiments.run_suite ~jobs:2 ~check ~workloads opts in
  (* Streaming validation accepts the suite and measures identically to the
     unchecked sweep, and the post hoc reference passes every simulation
     in it. *)
  let a = run false and b = run true in
  Alcotest.(check bool) "same rows" true
    (a.Clear_repro.Experiments.rows = b.Clear_repro.Experiments.rows);
  List.iter
    (fun (w : Workload.t) ->
      List.iter
        (fun letter ->
          let cfg = Clear_repro.Experiments.config_of_letter opts letter in
          List.iter
            (fun (sim : Run.sim) ->
              let _stats, v = Posthoc.run_sim_checked sim in
              if not (Check.Verdict.ok v) then
                Alcotest.failf "%s %s: %s" w.Workload.name letter (Check.Verdict.to_string v))
            (Run.sims (Config.with_retries cfg 2) w ~seeds:opts.Clear_repro.Experiments.seeds))
        Clear_repro.Experiments.letters)
    workloads

(* ------------------------------------------------------------------ *)
(* Trace: Unlocked events, dump clamp, Chrome export *)

let traced_run cfg workload =
  let trace = Trace.create ~capacity:(1 lsl 18) () in
  let cfg = small cfg in
  let engine = Engine.create ~check:(Trace.collector trace ~cores:cfg.Config.cores) cfg workload in
  let _ = Engine.run engine in
  trace

let test_trace_unlock_balance () =
  (* Every line lock the trace records as taken must also be recorded as
     released (the ring is large enough to retain the whole run). *)
  let trace = traced_run Config.clear_power Workloads.Mwobject.workload in
  let locked, unlocked =
    List.fold_left
      (fun (l, u) (e : Trace.event) ->
        match e.Trace.kind with
        | Trace.Lifecycle (Check.Lock_safety.Lock _) -> (l + 1, u)
        | Trace.Lifecycle (Unlock _) -> (l, u + 1)
        | _ -> (l, u))
      (0, 0) (Trace.events trace)
  in
  Alcotest.(check int) "locks balance unlocks" locked unlocked

(* Every attempt opens with an Attempt_begin and closes with an Attempt_end
   (a commit or an abort), in every mode — the cacheline-locked ones included — so a trace
   reader can pair them into spans. *)
let test_trace_attempts_balance () =
  List.iter
    (fun (letter, preset) ->
      let cfg =
        Config.with_seed { preset with Config.cores = 8; ops_per_thread = 60; max_retries = 2 } 7
      in
      let trace = Trace.create ~capacity:(1 lsl 18) () in
      let check = Trace.collector trace ~cores:cfg.Config.cores in
      ignore (Engine.run (Engine.create ~check cfg Workloads.Arrayswap.workload) : Machine.Stats.t);
      Alcotest.(check int) (letter ^ ": trace untruncated") (Trace.recorded trace) (Trace.retained trace);
      let begins, ends =
        List.fold_left
          (fun (b, e) (ev : Trace.event) ->
            match ev.Trace.kind with
            | Trace.Lifecycle (Check.Lock_safety.Attempt_begin _) -> (b + 1, e)
            | Trace.Lifecycle (Attempt_end _) -> (b, e + 1)
            | _ -> (b, e))
          (0, 0) (Trace.events trace)
      in
      Alcotest.(check int) (letter ^ ": begins = commits + aborts") ends begins)
    [ ("B", Config.baseline); ("P", Config.power_tm); ("C", Config.clear_rw); ("W", Config.clear_power) ]

let test_trace_dump_clamps_limit () =
  let trace = traced_run Config.baseline Workloads.Stack.workload in
  let n = Trace.retained trace in
  Alcotest.(check bool) "retained positive" true (n > 0);
  Alcotest.(check bool) "retained bounded" true (n <= Trace.recorded trace);
  (* A limit far beyond the retained count must print exactly the retained
     events, not crash or over-report. *)
  let lines s = List.length (String.split_on_char '\n' (String.trim s)) in
  let with_huge_limit =
    let b = Buffer.create 4096 in
    let ppf = Format.formatter_of_buffer b in
    Trace.dump ~limit:max_int trace ppf;
    Format.pp_print_flush ppf ();
    Buffer.contents b
  in
  Alcotest.(check int) "dump prints retained events" n (lines with_huge_limit)

let test_trace_chrome_json () =
  let trace = traced_run Config.clear_power Workloads.Bitcoin.workload in
  let file = Filename.temp_file "trace" ".json" in
  Out_channel.with_open_bin file (Trace.output_chrome_json trace);
  let json = In_channel.with_open_bin file In_channel.input_all in
  Sys.remove file;
  let contains needle = contains_sub json needle in
  Alcotest.(check bool) "opens the document" true
    (String.starts_with ~prefix:"{\"traceEvents\":[" json);
  Alcotest.(check bool) "closes the document" true
    (String.ends_with ~suffix:"],\"displayTimeUnit\":\"ns\"}" json);
  Alcotest.(check bool) "has traceEvents" true (contains "\"traceEvents\"");
  Alcotest.(check bool) "has process metadata" true (contains "process_name");
  Alcotest.(check bool) "has instant events" true (contains "\"ph\":\"i\"");
  Alcotest.(check bool) "commits exported" true (contains "commit")

let () =
  Alcotest.run "check"
    [
      ( "serializability",
        [
          Alcotest.test_case "accepts serial history" `Quick test_serial_accepts_serial_history;
          Alcotest.test_case "rejects stale read (RW)" `Quick test_serial_rejects_read_stale;
          Alcotest.test_case "rejects write inversion (WW)" `Quick
            test_serial_rejects_write_order_inversion;
          Alcotest.test_case "rejects future read (WR)" `Quick test_serial_rejects_future_read;
          Alcotest.test_case "WR reports reader/writer/times" `Quick test_serial_wr_fields;
          Alcotest.test_case "WR excludes self reads" `Quick test_serial_wr_self_read_excluded;
          Alcotest.test_case "WR boundary times benign" `Quick test_serial_wr_boundaries;
          Alcotest.test_case "accepts disjoint concurrency" `Quick test_serial_buffered_concurrent_ok;
        ] );
      ( "lock safety",
        [
          Alcotest.test_case "clean sequence" `Quick test_locks_clean_sequence;
          Alcotest.test_case "mutual exclusion" `Quick test_locks_mutual_exclusion;
          Alcotest.test_case "lexicographic order" `Quick test_locks_lexicographic_order;
          Alcotest.test_case "leaks detected" `Quick test_locks_leak_detected;
        ] );
      ( "replay",
        [
          Alcotest.test_case "accepts faithful history" `Quick test_replay_accepts_faithful_history;
          Alcotest.test_case "detects store mismatch" `Quick test_replay_detects_store_mismatch;
          Alcotest.test_case "detects memory mismatch" `Quick test_replay_detects_memory_mismatch;
          Alcotest.test_case "applies driver writes" `Quick test_replay_applies_driver_writes;
          Alcotest.test_case "live cursor matches image replay" `Quick test_replay_live_matches_image;
        ] );
      ( "end to end",
        [
          Alcotest.test_case "clean runs pass all oracles" `Quick test_checked_run_clean;
          Alcotest.test_case "capture does not perturb" `Quick test_check_does_not_perturb;
          Alcotest.test_case "injected bug caught" `Quick test_injected_bug_caught;
          Alcotest.test_case "enforce raises" `Quick test_checked_batch_raises;
          Alcotest.test_case "checked suite smoke" `Quick test_suite_checked_smoke;
        ] );
      ( "streaming",
        [
          Alcotest.test_case "agrees on unit histories" `Quick
            test_stream_matches_serial_on_unit_histories;
          Alcotest.test_case "retires behind the frontier" `Quick test_stream_retires_behind_frontier;
          Alcotest.test_case "sweep_every validated" `Quick test_stream_sweep_every_validated;
          Alcotest.test_case "finish requires initial" `Quick test_stream_requires_initial;
          Alcotest.test_case "end-to-end agreement (all presets)" `Quick
            test_stream_end_to_end_agreement;
          Alcotest.test_case "injected bug caught identically" `Quick
            test_stream_catches_injected_bug;
          Alcotest.test_case "streaming does not perturb" `Quick test_stream_does_not_perturb;
          Alcotest.test_case "streamed suite identical" `Quick test_stream_suite_smoke;
        ] );
      ( "trace",
        [
          Alcotest.test_case "unlock balance" `Quick test_trace_unlock_balance;
          Alcotest.test_case "attempts balance" `Quick test_trace_attempts_balance;
          Alcotest.test_case "dump clamps limit" `Quick test_trace_dump_clamps_limit;
          Alcotest.test_case "chrome json" `Quick test_trace_chrome_json;
        ] );
    ]
