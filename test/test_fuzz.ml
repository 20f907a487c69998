(* Fuzzing the engine with randomly generated atomic regions.

   Programs are loop-free (branches only jump forward), so they always
   terminate. A closed pointer discipline keeps every computed address inside
   a shared 32-line window: registers r0–r3 are "pointer class" — they are
   initialised to window addresses and only ever written by loads — and every
   value stored to memory is itself a valid window address, so loading
   through a pointer register is always safe.

   For each generated program the properties are:
   - the simulation terminates and commits exactly cores * ops operations
     under every configuration (B/P/C/W, HTM and SLE);
   - runs are deterministic (same seed, same cycle count);
   - with CLEAR enabled the memory image equals a rerun with CLEAR enabled
     (and both stay within the window — no stray writes). *)

module Engine = Machine.Engine
module Config = Machine.Config
module Stats = Machine.Stats
module Workload = Machine.Workload
module Store = Mem.Store
module I = Isa.Instr
module P = Isa.Program

let window_base = 64

let window_lines = 32

let window_words = window_lines * 8

(* Generate one instruction at index [i] of a body of length [n]. *)
let gen_instr ~i ~n rng =
  let gi bound = QCheck.Gen.generate1 ~rand:rng (QCheck.Gen.int_bound bound) in
  let gb () = QCheck.Gen.generate1 ~rand:rng QCheck.Gen.bool in
  let pointer_reg () = gi 3 in
  let data_reg () = 8 + gi 7 in
  let addr_operand () =
    if gb () then I.Imm (window_base + gi (window_words - 1)) else I.Reg (pointer_reg ())
  in
  let store_value () =
    (* stored values must be valid window addresses (pointer discipline) *)
    if gb () then I.Imm (window_base + gi (window_words - 1)) else I.Reg (pointer_reg ())
  in
  match gi 9 with
  | 0 | 1 ->
      (* load into a pointer register: the loaded value is a window address *)
      I.Ld { dst = pointer_reg (); base = addr_operand (); off = 0; region = "fuzz" }
  | 2 | 3 -> I.Ld { dst = data_reg (); base = addr_operand (); off = 0; region = "fuzz" }
  | 4 | 5 -> I.St { base = addr_operand (); off = 0; src = store_value (); region = "fuzz" }
  | 6 ->
      let ops = [| I.Add; I.Sub; I.Xor; I.And; I.Or; I.Min; I.Max |] in
      I.Binop
        {
          op = ops.(gi (Array.length ops - 1));
          dst = data_reg ();
          a = I.Reg (data_reg ());
          b = I.Imm (gi 100);
        }
  | 7 ->
      (* forward branch only: target in (i, n] — n is the Halt index *)
      let target = i + 1 + gi (n - i - 1) in
      I.Br { cond = I.Lt; a = I.Reg (data_reg ()); b = I.Imm (gi 50); target }
  | 8 -> I.Mov { dst = data_reg (); src = I.Imm (gi 1000) }
  | _ -> I.Nop

let gen_program ~seed ~id =
  let rng = Random.State.make [| seed; id |] in
  let n = 3 + QCheck.Gen.generate1 ~rand:rng (QCheck.Gen.int_bound 20) in
  let body = Array.init (n + 1) (fun i -> if i = n then I.Halt else gen_instr ~i ~n rng) in
  P.make_ar ~id ~name:(Printf.sprintf "fuzz%d" id) body

let gen_workload ~seed ~ar_count =
  let ars = List.init ar_count (fun id -> gen_program ~seed ~id) in
  let arr = Array.of_list ars in
  {
    Workload.name = Printf.sprintf "fuzz-%d" seed;
    description = "randomly generated loop-free atomic regions";
    ars;
    memory_words = window_base + window_words + 64;
    setup =
      (fun store rng ->
        (* every word holds a valid window address *)
        for i = 0 to window_words - 1 do
          Store.write store (window_base + i)
            (window_base + Simrt.Rng.int rng window_words)
        done);
    make_driver =
      (fun ~tid:_ ~threads:_ _ rng () ->
        let ar = arr.(Simrt.Rng.int rng (Array.length arr)) in
        let inits =
          List.init 4 (fun r -> (r, window_base + Simrt.Rng.int rng window_words))
        in
        Workload.op ar inits);
    }

let cfgs =
  [
    ("B", Config.baseline);
    ("P", Config.power_tm);
    ("C", Config.clear_rw);
    ("W", Config.clear_power);
    ("W/SLE", { Config.clear_power with Config.frontend = Config.Sle });
  ]

let shape cfg = { cfg with Config.cores = 4; ops_per_thread = 15; memory_words = 1 lsl 16 }

let test_fuzz_terminates_and_commits () =
  for seed = 1 to 12 do
    let w = gen_workload ~seed ~ar_count:3 in
    List.iter
      (fun (label, cfg) ->
        let cfg = shape cfg in
        let stats = Engine.run_workload cfg w in
        Alcotest.(check int)
          (Printf.sprintf "seed %d %s commits" seed label)
          (cfg.Config.cores * cfg.Config.ops_per_thread)
          (Stats.commits stats))
      cfgs
  done

let test_fuzz_deterministic () =
  for seed = 20 to 26 do
    let w = gen_workload ~seed ~ar_count:2 in
    let run () = Stats.total_cycles (Engine.run_workload (shape Config.clear_power) w) in
    Alcotest.(check int) (Printf.sprintf "seed %d deterministic" seed) (run ()) (run ())
  done

let test_fuzz_no_stray_writes () =
  (* The pointer discipline must keep every write inside the window: all
     memory outside it stays zero. *)
  for seed = 30 to 35 do
    let w = gen_workload ~seed ~ar_count:3 in
    let cfg = shape Config.clear_rw in
    let engine = Engine.create cfg w in
    let _ = Engine.run engine in
    let store = Engine.store engine in
    for a = window_base + window_words to window_base + window_words + 63 do
      Alcotest.(check int) (Printf.sprintf "seed %d word %d untouched" seed a) 0 (Store.read store a)
    done
  done

let test_fuzz_window_values_stay_valid () =
  (* Closure property: after any run, every window word still holds a valid
     window address — otherwise some store leaked a non-pointer value. *)
  for seed = 40 to 45 do
    let w = gen_workload ~seed ~ar_count:4 in
    let engine = Engine.create (shape Config.clear_power) w in
    let _ = Engine.run engine in
    let store = Engine.store engine in
    for i = 0 to window_words - 1 do
      let v = Store.read store (window_base + i) in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d slot %d in window" seed i)
        true
        (v >= window_base && v < window_base + window_words)
    done
  done

(* A random (but valid) schedule profile: random think distributions, hot
   cores, phase stagger, and a coin-flip two-socket latency matrix. Pure
   data, so it drops straight into Config.with_sched. *)
let gen_profile ~seed =
  let rng = Random.State.make [| seed; 0x5ced |] in
  let gi bound = QCheck.Gen.generate1 ~rand:rng (QCheck.Gen.int_bound bound) in
  let dist () =
    match gi 3 with
    | 0 -> Sched.Profile.Default
    | 1 -> Sched.Profile.Const (gi 100)
    | 2 ->
        let lo = gi 100 in
        Sched.Profile.Uniform { lo; hi = lo + gi 200 }
    | _ ->
        let lo = gi 100 in
        Sched.Profile.Burst { lo; hi = lo + gi 300; heat = float_of_int (gi 8) /. 4.0 }
  in
  {
    Sched.Profile.name = Printf.sprintf "fuzz-prof-%d" seed;
    description = "randomly drawn schedule profile";
    think = dist ();
    hot_cores = gi 2;
    hot_think = dist ();
    hot_op_mult = 1 + gi 2;
    phase_stride = gi 500;
    numa = (if gi 1 = 0 then Mem.Numa.flat else Mem.Numa.two_socket ~remote:(10 + gi 90));
  }

let test_fuzz_oracles_pass () =
  (* The strongest property in the suite: every fuzzed execution, under
     every configuration and frontend — and under a randomly drawn schedule
     profile as well as the symmetric one — passes all oracles:
     serializability of the commit order, bit-exact sequential replay, lock
     safety, and the static soundness gate. *)
  for seed = 50 to 57 do
    let w = gen_workload ~seed ~ar_count:3 in
    let profile = gen_profile ~seed in
    Alcotest.(check (list string))
      (Printf.sprintf "seed %d profile valid" seed)
      [] (Sched.Profile.validate profile);
    List.iter
      (fun (label, cfg) ->
        List.iter
          (fun (plabel, prof) ->
            let cfg = Machine.Config.with_sched (shape cfg) prof in
            let sim = { Clear_repro.Run.cfg; workload = w; seed } in
            let _stats, verdict = Clear_repro.Run.run_sim_checked sim in
            if not (Check.Verdict.ok verdict) then
              Alcotest.failf "seed %d %s %s: %s" seed label plabel
                (Check.Verdict.to_string verdict))
          [ ("sym", Sched.Profile.symmetric); ("rand", profile) ])
      cfgs
  done

(* ------------------------------------------------------------------ *)
(* Injected numa-blind fault: when fault_numa_blind drops the conflict probe
   on every cross-socket access, remote-socket cores race on shared lines
   undetected — the oracles must notice. A shared counter homed on socket 0
   makes the lost updates deterministic to provoke. *)

let counter_workload =
  let ar =
    P.build_ar ~id:0 ~name:"count" (fun b ->
        Isa.Asm.ld b ~dst:8 ~base:(I.Imm 0) ~region:"ctr" ();
        Isa.Asm.add b ~dst:8 (I.Reg 8) (I.Imm 1);
        Isa.Asm.st b ~base:(I.Imm 0) ~src:(I.Reg 8) ~region:"ctr" ();
        Isa.Asm.halt b)
  in
  {
    Workload.name = "numa-counter";
    description = "shared counter homed on socket 0";
    ars = [ ar ];
    memory_words = 128;
    setup = (fun store _ -> Store.write store 0 0);
    make_driver = (fun ~tid:_ ~threads:_ _ _ () -> Workload.op ar []);
  }

let test_numa_blind_fault_caught () =
  let cfg sname fault =
    Machine.Config.with_sched
      {
        Config.baseline with
        Config.cores = 4;
        ops_per_thread = 60;
        memory_words = 1 lsl 16;
        fault_numa_blind = fault;
      }
      (Sched.Scenarios.find_exn sname)
  in
  (* Control 1: the fault knob is inert on a flat matrix (no access has a
     positive adder, so nothing is blind). *)
  let sim = { Clear_repro.Run.cfg = cfg "symmetric" true; workload = counter_workload; seed = 5 } in
  let _stats, verdict = Clear_repro.Run.run_sim_checked sim in
  Alcotest.(check bool) "flat matrix: knob inert, run clean" true (Check.Verdict.ok verdict);
  (* Control 2: numa2x without the fault is clean. *)
  let sim = { Clear_repro.Run.cfg = cfg "numa2x" false; workload = counter_workload; seed = 5 } in
  let _stats, verdict = Clear_repro.Run.run_sim_checked sim in
  Alcotest.(check bool) "numa2x without fault clean" true (Check.Verdict.ok verdict);
  (* The bug: numa2x with the dropped cross-socket probe loses updates. *)
  let sim = { Clear_repro.Run.cfg = cfg "numa2x" true; workload = counter_workload; seed = 5 } in
  let _stats, verdict = Clear_repro.Run.run_sim_checked sim in
  Alcotest.(check bool) "numa-blind fault caught" true (not (Check.Verdict.ok verdict));
  Alcotest.(check bool) "serializability or replay flagged" true
    (Result.is_error verdict.Check.Verdict.serial || Result.is_error verdict.Check.Verdict.replay)

(* ------------------------------------------------------------------ *)
(* Streaming checker vs post hoc oracles.

   Random witness streams respecting the engine's emission invariants —
   per-core attempts never overlap, the merged event stream is
   non-decreasing in time, reads/writes fall inside their attempt, commits
   precede same-cycle attempt ends — must produce the same serializability
   verdict from Check.Stream (at any retirement cadence) as from the post
   hoc Check.Serial over the full history. *)

let noop_ar = P.make_ar ~id:77 ~name:"noop" [| I.Halt |]

type gen_attempt = {
  g_core : int;
  g_begin : int;
  g_end : int;
  g_reads : (int * int) list;
  g_writes : (int * int) list;
  g_mode : Check.Witness.mode;
}

let gen_attempts rng =
  let gi bound = QCheck.Gen.generate1 ~rand:rng (QCheck.Gen.int_bound bound) in
  let cores = 4 in
  let cursor = Array.make cores 0 in
  let n = 8 + gi 24 in
  List.init n (fun _ ->
      let core = gi (cores - 1) in
      let b = cursor.(core) + 1 + gi 5 in
      let e = b + 1 + gi 8 in
      cursor.(core) <- e;
      let span () = b + gi (e - b) in
      let subset () =
        List.filter_map (fun l -> if gi 2 = 0 then Some (l, span ()) else None) [ 0; 1; 2; 3; 4; 5 ]
      in
      let writes = subset () in
      let mode =
        match gi 3 with
        | 0 -> Check.Witness.Speculative
        | 1 -> Check.Witness.Scl
        | 2 -> Check.Witness.Nscl
        | _ -> Check.Witness.Fallback
      in
      { g_core = core; g_begin = b; g_end = e; g_reads = subset (); g_writes = writes; g_mode = mode })

(* Merge the attempts into the engine's stream order and materialise the
   commit-ordered witnesses: Attempt_begin at b, the commit then Attempt_end
   at e, ties resolved by insertion order (earlier attempt first), exactly
   as the sequential engine drains same-cycle events. *)
let events_of_attempts attempts =
  let raw =
    List.concat_map
      (fun a -> [ (a.g_begin, `Begin a); (a.g_end, `Commit a); (a.g_end, `End a) ])
      attempts
  in
  let raw = List.stable_sort (fun (t1, _) (t2, _) -> Int.compare t1 t2) raw in
  let seq = ref 0 in
  List.map
    (fun (t, e) ->
      match e with
      | `Begin a -> (t, `Begin a)
      | `End a -> (t, `End a)
      | `Commit a ->
          let w =
            {
              Check.Witness.seq = !seq;
              time = a.g_end;
              core = a.g_core;
              ar = noop_ar;
              init_regs = [];
              mode = a.g_mode;
              retries = 0;
              reads = a.g_reads;
              writes = a.g_writes;
              stores = [];
            }
          in
          incr seq;
          (t, `Witness w))
    raw

let serial_fingerprint = function
  | Ok () -> None
  | Error (v : Check.Serial.violation) ->
      Some (v.Check.Serial.kind, v.Check.Serial.line, v.earlier.Check.Witness.seq, v.later.Check.Witness.seq)

(* The printed report, which also names the earlier witness's header — the
   part of a witness the streaming checker keeps as ints. *)
let serial_report = function
  | Ok () -> None
  | Error v -> Some (Format.asprintf "%a" Check.Serial.pp_violation v)

let prop_stream_matches_serial =
  QCheck.Test.make ~name:"Check.Stream agrees with post hoc Check.Serial" ~count:120
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed; 0x57e4 |] in
      let events = events_of_attempts (gen_attempts rng) in
      let ws = List.filter_map (function _, `Witness w -> Some w | _ -> None) events in
      let posthoc_result = Check.Serial.check ws in
      let posthoc = serial_fingerprint posthoc_result in
      let posthoc_report = serial_report posthoc_result in
      let zero = Store.image_of_array (Array.make 16 0) in
      List.for_all
        (fun sweep_every ->
          let str = Check.Stream.create ~sweep_every ~cores:4 () in
          Check.Stream.set_initial str zero;
          List.iter
            (fun (t, e) ->
              match e with
              | `Begin a ->
                  Check.Stream.add_lock_event str
                    (Check.Lock_safety.Attempt_begin { time = t; core = a.g_core })
              | `Witness w -> Check.Stream.add_witness str w
              | `End a ->
                  Check.Stream.add_lock_event str
                    (Check.Lock_safety.Attempt_end { time = t; core = a.g_core }))
            events;
          let results = Check.Stream.finish str ~final:zero in
          Result.is_ok results.Check.Stream.replay
          && Result.is_ok results.Check.Stream.locks
          && serial_fingerprint results.Check.Stream.serial = posthoc
          && serial_report results.Check.Stream.serial = posthoc_report)
        [ 1; 2; 7; 512 ])

(* Lock safety against a plain list model of its rules: a holder list of
   (line, core) pairs and, per core, the held lines newest first. Random
   streams over few cores and lines hit every violation — re-lock, a lock
   held elsewhere, foreign and stray unlocks, out-of-order keys, attempts
   that begin or end holding locks, locks left at the end — and long wide
   streams hold enough lines at once to grow and shrink the flat holder
   table. The first violation must match field for field. *)
module Lock_model = struct
  open Check.Lock_safety

  let err time core fmt = Printf.ksprintf (fun reason -> Error { time; core; reason }) fmt

  let check ~cores events =
    let holders = ref [] and held = Array.make cores [] and last_key = Array.make cores min_int in
    let add = function
      | Attempt_begin { time; core } ->
          if held.(core) <> [] then
            err time core "attempt begins while still holding %d line lock(s) from a previous attempt"
              (List.length held.(core))
          else begin
            last_key.(core) <- min_int;
            Ok ()
          end
      | Lock { time; core; line; key } -> (
          match List.assoc_opt line !holders with
          | Some h when h = core -> err time core "re-locked line %d it already holds" line
          | Some h -> err time core "locked line %d already held by core %d" line h
          | None ->
              if key < last_key.(core) then
                err time core "lock on line %d breaks lexicographic order (key %d after %d)" line key
                  last_key.(core)
              else begin
                holders := (line, core) :: !holders;
                held.(core) <- line :: held.(core);
                last_key.(core) <- key;
                Ok ()
              end)
      | Unlock { time; core; line } -> (
          match List.assoc_opt line !holders with
          | Some h when h = core ->
              holders := List.remove_assoc line !holders;
              held.(core) <- List.filter (( <> ) line) held.(core);
              Ok ()
          | Some h -> err time core "unlocked line %d held by core %d" line h
          | None -> err time core "unlocked line %d that is not locked" line)
      | Attempt_end { time; core } -> (
          match held.(core) with
          | [] -> Ok ()
          | first :: _ ->
              err time core "attempt ends with %d unreleased line lock(s) (first: line %d)"
                (List.length held.(core)) first)
    in
    let rec feed = function
      | [] ->
          let rec finish core =
            if core >= cores then Ok ()
            else if held.(core) <> [] then
              err max_int core "simulation ended with %d line lock(s) still held"
                (List.length held.(core))
            else finish (core + 1)
          in
          finish 0
      | e :: rest -> ( match add e with Ok () -> feed rest | Error _ as r -> r)
    in
    feed events
end

(* Dense streams: few cores and lines, every event kind at random, so most
   end in a violation. Wide streams: mostly well-formed — unlocks of held
   lines, ascending keys — so many lines stay locked at once and the holder
   table grows and deletes. *)
let gen_lock_events rng =
  let gi bound = QCheck.Gen.generate1 ~rand:rng (QCheck.Gen.int_bound bound) in
  let module L = Check.Lock_safety in
  if gi 2 > 0 then begin
    let cores = 1 + gi 2 in
    let key = Array.make cores 0 in
    ( cores,
      List.init (1 + gi 30) (fun time ->
          let core = gi (cores - 1) in
          match gi 4 with
          | 0 ->
              key.(core) <- 0;
              L.Attempt_begin { time; core }
          | 1 -> L.Attempt_end { time; core }
          | 2 -> L.Unlock { time; core; line = gi 3 }
          | _ ->
              (* keys mostly ascend within an attempt, sometimes not *)
              if gi 9 > 0 then key.(core) <- key.(core) + gi 2 else key.(core) <- key.(core) - 1;
              L.Lock { time; core; line = gi 3; key = key.(core) }) )
  end
  else begin
    let cores = 4 in
    let held = Array.make cores [] and key = Array.make cores 0 in
    ( cores,
      List.init (50 + gi 400) (fun time ->
          let core = gi (cores - 1) in
          match (gi 9, held.(core)) with
          | 0, [] -> L.Attempt_begin { time; core }
          | 1, [] -> L.Attempt_end { time; core }
          | (0 | 1 | 2 | 3), (_ :: _ as hs) ->
              let line = if gi 199 > 0 then List.nth hs (gi (List.length hs - 1)) else gi 9_999 in
              held.(core) <- List.filter (( <> ) line) hs;
              L.Unlock { time; core; line }
          | _ ->
              let line = core + (4 * gi 2_499) in
              held.(core) <- line :: held.(core);
              key.(core) <- key.(core) + gi 1;
              L.Lock { time; core; line; key = key.(core) }) )
  end

let prop_lock_safety_matches_model =
  QCheck.Test.make ~name:"Check.Lock_safety agrees with a list model" ~count:600
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let cores, events = gen_lock_events (Random.State.make [| seed; 0x10c4 |]) in
      Check.Lock_safety.check ~cores events = Lock_model.check ~cores events)

let test_fuzz_stream_agrees_with_posthoc () =
  (* Full engine runs: the streaming verdict equals the post hoc one byte
     for byte on fuzzed workloads under every configuration. *)
  for seed = 50 to 52 do
    let w = gen_workload ~seed ~ar_count:3 in
    List.iter
      (fun (label, cfg) ->
        let sim = { Clear_repro.Run.cfg = shape cfg; workload = w; seed } in
        let _stats, posthoc = Clear_repro.Run.run_sim_checked sim in
        let _stats, streamed = Clear_repro.Run.run_sim_checked ~stream:true sim in
        Alcotest.(check string)
          (Printf.sprintf "seed %d %s stream report" seed label)
          (Check.Verdict.to_string posthoc)
          (Check.Verdict.to_string streamed))
      cfgs
  done;
  (* ...and on an injected bug: the numa-blind fault's failing verdict must
     stream to the identical report. *)
  let cfg =
    Machine.Config.with_sched
      {
        Config.baseline with
        Config.cores = 4;
        ops_per_thread = 60;
        memory_words = 1 lsl 16;
        fault_numa_blind = true;
      }
      (Sched.Scenarios.find_exn "numa2x")
  in
  let sim = { Clear_repro.Run.cfg; workload = counter_workload; seed = 5 } in
  let _stats, posthoc = Clear_repro.Run.run_sim_checked sim in
  let _stats, streamed = Clear_repro.Run.run_sim_checked ~stream:true sim in
  Alcotest.(check bool) "fault caught by stream" true (not (Check.Verdict.ok streamed));
  Alcotest.(check string) "identical failing report" (Check.Verdict.to_string posthoc)
    (Check.Verdict.to_string streamed)

let () =
  Alcotest.run "fuzz"
    [
      ( "random programs",
        [
          Alcotest.test_case "terminate and commit (all configs)" `Quick test_fuzz_terminates_and_commits;
          Alcotest.test_case "deterministic" `Quick test_fuzz_deterministic;
          Alcotest.test_case "no stray writes" `Quick test_fuzz_no_stray_writes;
          Alcotest.test_case "pointer closure" `Quick test_fuzz_window_values_stay_valid;
          Alcotest.test_case "all oracles pass (all configs x profiles)" `Quick
            test_fuzz_oracles_pass;
          Alcotest.test_case "numa-blind fault caught by oracles" `Quick
            test_numa_blind_fault_caught;
        ] );
      ( "streaming",
        [
          QCheck_alcotest.to_alcotest prop_stream_matches_serial;
          QCheck_alcotest.to_alcotest prop_lock_safety_matches_model;
          Alcotest.test_case "engine runs stream to identical verdicts" `Quick
            test_fuzz_stream_agrees_with_posthoc;
        ] );
    ]
