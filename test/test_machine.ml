(* Tests for the machine substrate around the engine: register file,
   transactional state, conflict map, fallback lock, abort taxonomy,
   configuration presets and statistics. *)

module Regfile = Machine.Regfile
module Txn = Machine.Txn
module Conflict_map = Machine.Conflict_map
module Fallback_lock = Machine.Fallback_lock
module Abort = Check.Abort
module Config = Machine.Config
module Stats = Machine.Stats
module I = Isa.Instr

(* ------------------------------------------------------------------ *)
(* Regfile *)

let test_regfile_values () =
  let r = Regfile.create () in
  Regfile.load_initial r [ (0, 10); (3, 7) ];
  Alcotest.(check int) "init r0" 10 (Regfile.get r 0);
  Alcotest.(check int) "init r3" 7 (Regfile.get r 3);
  Alcotest.(check int) "others zero" 0 (Regfile.get r 1);
  Alcotest.(check int) "operand reg" 10 (Regfile.operand r (I.Reg 0));
  Alcotest.(check int) "operand imm" 42 (Regfile.operand r (I.Imm 42))

let test_regfile_taint () =
  let r = Regfile.create () in
  Regfile.define_load r ~dst:1 5;
  Alcotest.(check bool) "load taints" true (Regfile.operand_tainted r (I.Reg 1));
  Regfile.define_alu r ~dst:2 (I.Reg 1) (I.Imm 3) 8;
  Alcotest.(check bool) "alu propagates" true (Regfile.operand_tainted r (I.Reg 2));
  Regfile.define_alu r ~dst:1 (I.Imm 3) (I.Imm 3) 3;
  Alcotest.(check bool) "overwrite clears" false (Regfile.operand_tainted r (I.Reg 1));
  Alcotest.(check bool) "imm never tainted" false (Regfile.operand_tainted r (I.Imm 0));
  Regfile.load_initial r [ (2, 0) ];
  Alcotest.(check bool) "initial regs untainted" false (Regfile.operand_tainted r (I.Reg 2))

(* ------------------------------------------------------------------ *)
(* Txn *)

let test_txn_sets () =
  let t = Txn.create () in
  Txn.start t;
  Alcotest.(check bool) "active" true (Txn.active t);
  Txn.read_line t 3;
  Txn.write_line t 5;
  Alcotest.(check bool) "read set" true (Txn.in_read_set t 3);
  Alcotest.(check bool) "write set" true (Txn.in_write_set t 5);
  Alcotest.(check bool) "either" true (Txn.in_either_set t 3 && Txn.in_either_set t 5);
  Alcotest.(check (list int)) "footprint sorted" [ 3; 5 ] (Txn.footprint t);
  Alcotest.(check int) "footprint size" 2 (Txn.footprint_size t);
  Txn.read_line t 5;
  Alcotest.(check int) "overlap counted once" 2 (Txn.footprint_size t)

let test_txn_buffer_forwarding () =
  let t = Txn.create () in
  Txn.start t;
  Txn.buffer_store t 100 1;
  Txn.buffer_store t 100 2;
  Alcotest.(check (option int)) "last value forwarded" (Some 2) (Txn.forwarded t 100);
  Alcotest.(check (option int)) "other addr" None (Txn.forwarded t 101);
  Alcotest.(check int) "store count is dynamic" 2 (Txn.store_count t)

let test_txn_drain_order () =
  let store = Mem.Store.create ~words:256 in
  let t = Txn.create () in
  Txn.start t;
  Txn.buffer_store t 10 1;
  Txn.buffer_store t 11 5;
  Txn.buffer_store t 10 9 (* later store to same address wins *);
  let n = Txn.drain t store in
  Alcotest.(check int) "words drained" 3 n;
  Alcotest.(check int) "program order respected" 9 (Mem.Store.read store 10);
  Alcotest.(check int) "other addr" 5 (Mem.Store.read store 11)

let test_txn_reset () =
  let t = Txn.create () in
  Txn.start t;
  Txn.buffer_store t 1 1;
  Txn.read_line t 0;
  Txn.reset t;
  Alcotest.(check bool) "inactive" false (Txn.active t);
  Alcotest.(check (list int)) "sets gone" [] (Txn.footprint t);
  Alcotest.(check (option int)) "buffer gone" None (Txn.forwarded t 1)

(* ------------------------------------------------------------------ *)
(* Conflict_map *)

let test_conflict_map () =
  let m = Conflict_map.create ~cores:4 () in
  Conflict_map.add_reader m ~core:0 7;
  Conflict_map.add_reader m ~core:2 7;
  Conflict_map.add_writer m ~core:1 7;
  Alcotest.(check (list int)) "readers excl self" [ 2 ] (Conflict_map.conflicting_readers m ~core:0 7);
  Alcotest.(check (list int)) "writers" [ 1 ] (Conflict_map.conflicting_writers m ~core:0 7);
  Conflict_map.remove_line m ~core:2 7;
  Alcotest.(check (list int)) "removed" [] (Conflict_map.conflicting_readers m ~core:0 7);
  Alcotest.(check int) "writer mask" 2 (Conflict_map.writers m 7);
  Conflict_map.clear m;
  Alcotest.(check int) "cleared" 0 (Conflict_map.writers m 7)

let test_conflict_map_excl_masks () =
  let m = Conflict_map.create ~lines:4 ~cores:8 () in
  (* line 5000 is beyond the first 4096-line granule the 4-line hint
     rounds up to: growth must be transparent. *)
  Conflict_map.add_reader m ~core:0 5000;
  Conflict_map.add_reader m ~core:5 5000;
  Conflict_map.add_writer m ~core:3 5000;
  Alcotest.(check int) "readers_excl drops own bit" 0b100000
    (Conflict_map.readers_excl m ~core:0 5000);
  Alcotest.(check int) "writers_excl keeps others" 0b1000
    (Conflict_map.writers_excl m ~core:0 5000);
  Alcotest.(check int) "writers_excl drops own bit" 0 (Conflict_map.writers_excl m ~core:3 5000);
  Alcotest.(check int) "query beyond capacity is empty" 0 (Conflict_map.readers m 1_000_000);
  let seen = ref [] in
  Conflict_map.iter_cores 0b101001 (fun c -> seen := c :: !seen);
  Alcotest.(check (list int)) "iter_cores ascending" [ 0; 3; 5 ] (List.rev !seen)

(* After [release] every line reads as held by no core, in the released map
   and in the next one, which reuses its arrays; a released map that is
   written again grows afresh. *)
let test_conflict_map_release () =
  let m = Conflict_map.create ~lines:64 ~cores:4 () in
  Conflict_map.add_reader m ~core:1 7;
  Conflict_map.add_writer m ~core:2 9;
  Conflict_map.release m;
  let n = Conflict_map.create ~lines:64 ~cores:4 () in
  List.iter
    (fun (name, map) ->
      Alcotest.(check int) (name ^ ": no reader") 0 (Conflict_map.readers map 7);
      Alcotest.(check int) (name ^ ": no writer") 0 (Conflict_map.writers map 9))
    [ ("released", m); ("reused", n) ];
  Conflict_map.add_writer m ~core:3 40;
  Alcotest.(check int) "written after release" 0b1000 (Conflict_map.writers m 40)

(* Property: the flat line-indexed array behaves exactly like a reference
   Hashtbl model under random add/remove/query scripts, including removals
   of lines never added and queries far past the pre-sized capacity. *)
let prop_conflict_map_model =
  let cores = 8 in
  let op_gen =
    QCheck.Gen.(
      triple (int_range 0 3) (int_range 0 (cores - 1)) (int_range 0 200)
      |> map (fun (tag, core, line) -> (tag, core, line)))
  in
  QCheck.Test.make ~name:"Conflict_map agrees with a Hashtbl model" ~count:200
    (QCheck.make QCheck.Gen.(list_size (int_range 0 120) op_gen))
    (fun script ->
      let m = Conflict_map.create ~lines:8 ~cores () in
      (* Model: line -> (reader mask, writer mask). *)
      let model : (int, int * int) Hashtbl.t = Hashtbl.create 64 in
      let masks line = Option.value (Hashtbl.find_opt model line) ~default:(0, 0) in
      List.for_all
        (fun (tag, core, line) ->
          (match tag with
          | 0 ->
              Conflict_map.add_reader m ~core line;
              let r, w = masks line in
              Hashtbl.replace model line (r lor (1 lsl core), w)
          | 1 ->
              Conflict_map.add_writer m ~core line;
              let r, w = masks line in
              Hashtbl.replace model line (r, w lor (1 lsl core))
          | 2 ->
              Conflict_map.remove_line m ~core line;
              let r, w = masks line in
              let keep = lnot (1 lsl core) in
              Hashtbl.replace model line (r land keep, w land keep)
          | _ ->
              let keep = lnot (1 lsl core) in
              List.iter
                (fun l ->
                  Conflict_map.remove_line m ~core l;
                  let r, w = masks l in
                  Hashtbl.replace model l (r land keep, w land keep))
                [ line; line + 7 ]);
          let r, w = masks line in
          let excl c mask = mask land lnot (1 lsl c) in
          let to_list mask =
            List.filter (fun c -> mask land (1 lsl c) <> 0) (List.init cores Fun.id)
          in
          Conflict_map.readers m line = r
          && Conflict_map.writers m line = w
          && Conflict_map.readers_excl m ~core line = excl core r
          && Conflict_map.writers_excl m ~core line = excl core w
          && Conflict_map.conflicting_readers m ~core line = to_list (excl core r)
          && Conflict_map.conflicting_writers m ~core line = to_list (excl core w))
        script)

(* ------------------------------------------------------------------ *)
(* Fallback_lock *)

let test_fallback_rw_semantics () =
  let l = Fallback_lock.create () in
  Alcotest.(check bool) "reader 0" true (Fallback_lock.try_read_lock l ~core:0);
  Alcotest.(check bool) "reader 1" true (Fallback_lock.try_read_lock l ~core:1);
  Alcotest.(check bool) "writer blocked by readers" false (Fallback_lock.try_write_lock l ~core:2);
  Fallback_lock.release l ~core:0;
  Fallback_lock.release l ~core:1;
  Alcotest.(check bool) "writer acquires" true (Fallback_lock.try_write_lock l ~core:2);
  Alcotest.(check bool) "reader blocked by writer" false (Fallback_lock.try_read_lock l ~core:0);
  Alcotest.(check (option int)) "writer id" (Some 2) (Fallback_lock.writer l);
  Fallback_lock.release l ~core:2;
  Alcotest.(check bool) "free" true (Fallback_lock.free l)

let test_fallback_writer_priority () =
  let l = Fallback_lock.create () in
  Alcotest.(check bool) "reader in" true (Fallback_lock.try_read_lock l ~core:0);
  Fallback_lock.announce_writer l ~core:1;
  Alcotest.(check bool) "new readers blocked" false (Fallback_lock.try_read_lock l ~core:2);
  Fallback_lock.release l ~core:0;
  Alcotest.(check bool) "writer gets in" true (Fallback_lock.try_write_lock l ~core:1);
  Alcotest.(check bool) "announcement cleared" true (Fallback_lock.writer_held l);
  Fallback_lock.release l ~core:1;
  Alcotest.(check bool) "readers again" true (Fallback_lock.try_read_lock l ~core:2)

(* ------------------------------------------------------------------ *)
(* Abort taxonomy *)

let test_abort_categories () =
  Alcotest.(check string) "nack is memory conflict" "Memory Conflict"
    (Abort.category_name (Abort.category Abort.Nacked));
  Alcotest.(check string) "capacity is others" "Others"
    (Abort.category_name (Abort.category Abort.Capacity));
  Alcotest.(check bool) "explicit fallback uncounted" false
    (Abort.counts_toward_retry_limit Abort.Explicit_fallback);
  Alcotest.(check bool) "memory conflict counted" true
    (Abort.counts_toward_retry_limit Abort.Memory_conflict);
  Alcotest.(check int) "four categories" 4 (List.length Abort.all_categories)

(* ------------------------------------------------------------------ *)
(* Config *)

let test_config_presets () =
  Alcotest.(check string) "B" "B" (Config.preset_letter Config.baseline);
  Alcotest.(check string) "P" "P" (Config.preset_letter Config.power_tm);
  Alcotest.(check string) "C" "C" (Config.preset_letter Config.clear_rw);
  Alcotest.(check string) "W" "W" (Config.preset_letter Config.clear_power);
  Alcotest.(check bool) "clear off in baseline" false Config.baseline.Config.clear_enabled;
  Alcotest.(check bool) "clear on in W" true Config.clear_power.Config.clear_enabled;
  let c = Config.with_retries Config.baseline 7 in
  Alcotest.(check int) "with_retries" 7 c.Config.max_retries;
  Alcotest.(check int) "with_seed" 3 (Config.with_seed c 3).Config.seed

(* Table 2 as [Config.pp] prints it for the four presets and for W under
   SLE, pinned line for line: the machine numbers must not move. *)
let test_config_pp () =
  let table2 htm =
    String.concat "\n"
      [
        "Core      | 32-core out-of-order Icelake-like. ROB: 352 uops; LQ: 128 entries; SQ: 72 entries";
        "L1 Cache  | Data: 64 sets x 12 ways (48KiB), 1-cycle access latency";
        "L2 Cache  | 1024 sets x 8 ways (512KiB), 10-cycle access latency";
        "L3 Cache  | 4096 sets x 16 ways (4MiB), 45-cycle access latency";
        "Memory    | 80-cycle access latency";
        "Coherence | MESI directory, 32768 sets; 12-cycle message hop";
        "HTM       | " ^ htm ^ "; 4 retries before taking the fallback lock";
      ]
  in
  List.iter
    (fun (name, cfg, htm) ->
      Alcotest.(check string) name (table2 htm) (Format.asprintf "%a" Config.pp cfg))
    [
      ("B", Config.baseline, "requester-wins, out-of-core (HTM)");
      ("P", Config.power_tm, "PowerTM, out-of-core (HTM)");
      ("C", Config.clear_rw, "requester-wins, out-of-core (HTM) + CLEAR");
      ("W", Config.clear_power, "PowerTM, out-of-core (HTM) + CLEAR");
      ("W/SLE", Config.with_frontend Config.clear_power Config.Sle, "PowerTM, in-core (SLE) + CLEAR");
    ]

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_stats_commits_and_retries () =
  let s = Stats.create () in
  Stats.note_commit s ~ar:20 ~mode:Stats.Speculative ~retries:0;
  Stats.note_commit s ~ar:20 ~mode:Stats.Speculative ~retries:1;
  Stats.note_commit s ~ar:3 ~mode:Stats.Scl ~retries:1;
  Stats.note_commit s ~mode:Stats.Fallback ~retries:6;
  Alcotest.(check int) "commits" 4 (Stats.commits s);
  Alcotest.(check int) "per AR" 2 (Stats.commits_for_ar s 20);
  Alcotest.(check int) "AR never committed" 0 (Stats.commits_for_ar s 4);
  Alcotest.(check int) "scl commits" 1 (Stats.commits_in_mode s Stats.Scl);
  let one, many, fb = Stats.retry_breakdown s in
  Alcotest.(check (float 1e-9)) "one-retry share" (2.0 /. 3.0) one;
  Alcotest.(check (float 1e-9)) "many share" 0.0 many;
  Alcotest.(check (float 1e-9)) "fallback share" (1.0 /. 3.0) fb;
  Alcotest.(check (float 1e-9)) "first try" 0.25 (Stats.first_try_ratio s);
  Alcotest.(check (float 1e-9)) "single retry" 0.5 (Stats.single_retry_ratio s)

let test_stats_aborts () =
  let s = Stats.create () in
  Stats.note_abort s Abort.Memory_conflict;
  Stats.note_abort s Abort.Nacked;
  Stats.note_abort s Abort.Capacity;
  Stats.note_commit s ~mode:Stats.Speculative ~retries:3;
  Alcotest.(check int) "aborts" 3 (Stats.aborts s);
  Alcotest.(check int) "memory category groups nack" 2
    (Stats.aborts_in_category s Abort.Cat_memory_conflict);
  Alcotest.(check (float 1e-9)) "per commit" 3.0 (Stats.aborts_per_commit s)

(* ------------------------------------------------------------------ *)
(* Trace *)

let test_trace_ring () =
  let t = Machine.Trace.create ~capacity:3 () in
  let col = Machine.Trace.collector t ~cores:1 in
  for i = 1 to 5 do
    Check.Collector.add_lock_event col (Check.Lock_safety.Lock { time = i; core = 0; line = i; key = i })
  done;
  Alcotest.(check int) "total recorded" 5 (Machine.Trace.recorded t);
  let kept = Machine.Trace.events t in
  Alcotest.(check int) "capacity bounds retention" 3 (List.length kept);
  Alcotest.(check (list int)) "keeps newest, oldest first" [ 3; 4; 5 ]
    (List.map (fun (e : Machine.Trace.event) -> e.time) kept)

let test_trace_engine_integration () =
  let trace = Machine.Trace.create () in
  let cfg = { Config.clear_rw with Config.cores = 4; ops_per_thread = 20; memory_words = 1 lsl 20 } in
  let check = Machine.Trace.collector trace ~cores:cfg.Config.cores in
  let engine = Machine.Engine.create ~check cfg Workloads.Arrayswap.workload in
  let _ = Machine.Engine.run engine in
  let events = Machine.Trace.events trace in
  Alcotest.(check bool) "events recorded" true (events <> []);
  let has p = List.exists p events in
  Alcotest.(check bool) "commits traced" true
    (has (fun e ->
         match e.Machine.Trace.kind with
         | Machine.Trace.Lifecycle (Attempt_end { outcome = Committed _; _ }) -> true
         | _ -> false));
  Alcotest.(check bool) "begins traced" true
    (has (fun e ->
         match e.Machine.Trace.kind with
         | Machine.Trace.Lifecycle (Attempt_begin _) -> true
         | _ -> false))

let test_trace_dump_renders () =
  let t = Machine.Trace.create () in
  Check.Collector.add_lock_event
    (Machine.Trace.collector t ~cores:4)
    (Check.Lock_safety.Attempt_end { time = 7; core = 2; outcome = Aborted Abort.Nacked });
  let buf = Buffer.create 64 in
  let ppf = Format.formatter_of_buffer buf in
  Machine.Trace.dump t ppf;
  Format.pp_print_flush ppf ();
  let s = Buffer.contents buf in
  Alcotest.(check bool) "mentions cause" true
    (let rec contains i =
       i + 6 <= String.length s && (String.sub s i 6 = "nacked" || contains (i + 1))
     in
     contains 0)

let () =
  Alcotest.run "machine"
    [
      ( "regfile",
        [
          Alcotest.test_case "values" `Quick test_regfile_values;
          Alcotest.test_case "taint" `Quick test_regfile_taint;
        ] );
      ( "txn",
        [
          Alcotest.test_case "sets" `Quick test_txn_sets;
          Alcotest.test_case "buffer forwarding" `Quick test_txn_buffer_forwarding;
          Alcotest.test_case "drain order" `Quick test_txn_drain_order;
          Alcotest.test_case "reset" `Quick test_txn_reset;
        ] );
      ( "conflict_map",
        [
          Alcotest.test_case "basics" `Quick test_conflict_map;
          Alcotest.test_case "excl masks + growth" `Quick test_conflict_map_excl_masks;
          Alcotest.test_case "release" `Quick test_conflict_map_release;
          QCheck_alcotest.to_alcotest prop_conflict_map_model;
        ] );
      ( "fallback_lock",
        [
          Alcotest.test_case "rw semantics" `Quick test_fallback_rw_semantics;
          Alcotest.test_case "writer priority" `Quick test_fallback_writer_priority;
        ] );
      ("abort", [ Alcotest.test_case "categories" `Quick test_abort_categories ]);
      ( "config",
        [
          Alcotest.test_case "presets" `Quick test_config_presets;
          Alcotest.test_case "pp" `Quick test_config_pp;
        ] );
      ( "stats",
        [
          Alcotest.test_case "commits/retries" `Quick test_stats_commits_and_retries;
          Alcotest.test_case "aborts" `Quick test_stats_aborts;
        ] );
      ( "trace",
        [
          Alcotest.test_case "ring buffer" `Quick test_trace_ring;
          Alcotest.test_case "engine integration" `Quick test_trace_engine_integration;
          Alcotest.test_case "dump renders" `Quick test_trace_dump_renders;
        ] );
    ]
