module Rng = Simrt.Rng
module Event_queue = Simrt.Event_queue
module I = Isa.Instr

(* Execution mode of the current attempt. *)
type mode =
  | M_spec (* plain speculative (possibly discovery) *)
  | M_scl
  | M_nscl
  | M_fallback

type phase =
  | P_next_op (* pick the next operation or finish *)
  | P_start (* begin an attempt *)
  | P_lock (* acquiring cachelines for a CL-mode retry *)
  | P_exec (* executing the AR body *)
  | P_done

type core = {
  id : int;
  rng : Rng.t;
  regs : Regfile.t;
  txn : Txn.t;
  ert : Clear.Ert.t;
  alt : Clear.Alt.t;
  crt : Clear.Crt.t;
  driver : Workload.driver;
  mutable ops_done : int;
  mutable op : Workload.op option;
  mutable phase : phase;
  mutable mode : mode;
  mutable pc : int;
  mutable attempt : int; (* 0-based attempt index for the current op *)
  mutable retries_counted : int; (* aborts that count toward the limit *)
  mutable attempt_instrs : int;
  mutable pending_abort : (Abort.cause * Mem.Addr.line option) option;
  mutable failed_mode : bool; (* discovery continuing after a conflict *)
  mutable failed_cause : Abort.cause;
  mutable discovery : bool; (* CLEAR discovery active this attempt *)
  mutable alt_overflow : bool;
  mutable sq_overflow : bool;
  mutable indirection_seen : bool;
  mutable planned : Clear.Decision.mode option; (* retry mode decided *)
  mutable lock_queue : Clear.Alt.entry list; (* entries left to lock *)
  mutable read_lock_held : bool;
  mutable explicit_fb_counted : bool; (* one explicit-fallback abort per spin session *)
  mutable footprint0 : Mem.Addr.line array option; (* fig. 1; sorted *)
  attempt_lines : Simrt.Lineset.t; (* footprint incl. CL modes *)
  mutable req : int; (* open-system request being served; -1 when none *)
  mutable finished : bool;
  (* Witness capture (populated only when the engine has a check collector;
     deliberately separate from the Txn sets, which NS-CL/fallback bypass).
     One pooled buffer per core, reused across attempts and requests. *)
  cap : Check.Capbuf.t;
}

type t = {
  cfg : Config.t;
  trace : Trace.t option;
  check : Check.Collector.t option;
  workload : Workload.t;
  store : Mem.Store.t;
  hierarchy : Mem.Hierarchy.t;
  conflicts : Conflict_map.t;
  lock0 : Fallback_lock.t;
      (* HTM: the single global fallback lock. SLE: critical-section mutex
         0's reader-writer lock; the other mutexes' live in [locks]. *)
  locks : (int, Fallback_lock.t) Hashtbl.t;
  stats : Stats.t;
  lock_phase_cycles : Simrt.Counter.cell;
  stall_cycles : Simrt.Counter.cell;
  perf : Simrt.Perfctr.t;
  openq : Openq.t option;
  cores : core array;
  queue : int Event_queue.t; (* payload: core id *)
  arrival_lane : Event_queue.lane; (* idle open-loop cores, parked until the next arrival *)
  conflict_seen : (int * int * int, unit) Hashtbl.t;
      (* (aggressor AR id, victim AR id, line) triples already reported to
         the checker; bounds conflict-event volume by the static matrix
         size, not the run length *)
  mutable power_owner : int; (* PowerTM token, -1 when free *)
  mutable now : int;
}

let max_ar_instrs = 200_000

let create ?trace ?check (cfg : Config.t) (workload : Workload.t) =
  let words = max cfg.memory_words workload.memory_words in
  let store = Mem.Store.create ~words in
  let stats = Stats.create () in
  let hierarchy =
    Mem.Hierarchy.create ~numa:cfg.sched.Sched.Profile.numa cfg.mem_params ~cores:cfg.cores ~store
      ~counters:(Stats.counters stats)
  in
  let root_rng = Rng.create cfg.seed in
  workload.setup store (Rng.split root_rng 1_000_003);
  let dir_set_of = Mem.Params.dir_set_of cfg.mem_params in
  let cores =
    Array.init cfg.cores (fun id ->
        let rng = Rng.split root_rng id in
        {
          id;
          rng;
          regs = Regfile.create ();
          txn = Txn.create ();
          ert = Clear.Ert.create ~entries:cfg.ert_entries ();
          alt = Clear.Alt.create ~capacity:cfg.alt_capacity ~dir_set_of ();
          crt = Clear.Crt.create ~entries:cfg.crt_entries ~ways:cfg.crt_ways ();
          driver = workload.make_driver ~tid:id ~threads:cfg.cores store (Rng.split root_rng (7_919 + id));
          ops_done = 0;
          op = None;
          phase = P_next_op;
          mode = M_spec;
          pc = 0;
          attempt = 0;
          retries_counted = 0;
          attempt_instrs = 0;
          pending_abort = None;
          failed_mode = false;
          failed_cause = Abort.Memory_conflict;
          discovery = false;
          alt_overflow = false;
          sq_overflow = false;
          indirection_seen = false;
          planned = None;
          lock_queue = [];
          read_lock_held = false;
          explicit_fb_counted = false;
          footprint0 = None;
          attempt_lines = Simrt.Lineset.create ~hint:64 ();
          req = -1;
          finished = false;
          cap = Check.Capbuf.create ();
        })
  in
  let queue = Event_queue.create () in
  Array.iter
    (fun c ->
      let time = Sched.Profile.start_offset cfg.sched ~core:c.id ~base:cfg.think_cycles c.rng in
      Event_queue.push queue ~time c.id)
    cores;
  (* Snapshot after setup and driver construction (closure-creation-time
     writes are part of the initial image), before any simulated cycle. *)
  (match check with
  | None -> ()
  | Some col ->
      Check.Collector.set_ars col workload.ars;
      Check.Collector.set_initial col (Mem.Store.snapshot store));
  {
    cfg;
    trace;
    check;
    workload;
    store;
    hierarchy;
    (* Hint from the workload's own memory, not [cfg.memory_words] (whose
       default exists to bound the address space, not to be touched): lines
       are dense from zero and the map grows if an address lands beyond. *)
    conflicts = Conflict_map.create ~lines:((workload.memory_words asr 3) + 1) ~cores:cfg.cores ();
    lock0 = Fallback_lock.create ();
    locks = Hashtbl.create 16;
    stats;
    lock_phase_cycles = Simrt.Counter.cell (Stats.counters stats) "lock_phase_cycles";
    stall_cycles = Simrt.Counter.cell (Stats.counters stats) "stall_cycles";
    perf = Simrt.Perfctr.create ();
    (* The arrival schedule draws from its own split; Rng.split derives from
       the parent's original seed, not its state, so adding this split
       leaves every closed-loop stream bit-identical. *)
    openq =
      (match cfg.openloop with
      | None -> None
      | Some q -> Some (Openq.create q (Rng.split root_rng 104_729)));
    cores;
    queue;
    arrival_lane = Event_queue.add_lane queue;
    conflict_seen = Hashtbl.create 64;
    power_owner = -1;
    now = 0;
  }

let store t = t.store

let perfctr t = t.perf

let openq t = t.openq

(* ------------------------------------------------------------------ *)
(* Helpers                                                             *)

let current_op c = match c.op with Some op -> op | None -> invalid_arg "no current op"

let lock_table t id =
  if id = 0 then t.lock0
  else
    match Hashtbl.find_opt t.locks id with
    | Some l -> l
    | None ->
        let l = Fallback_lock.create () in
        Hashtbl.add t.locks id l;
        l

(* The mutex this core's current operation falls back to: the region's own
   lock under SLE, the single global lock under HTM. *)
let op_lock t c =
  match t.cfg.frontend with
  | Config.Sle -> lock_table t (current_op c).Workload.lock_id
  | Config.Htm -> t.lock0

let is_speculating c = c.phase = P_exec && (c.mode = M_spec || c.mode = M_scl) && not c.failed_mode

let release_power t c = if t.power_owner = c.id then t.power_owner <- -1

let try_acquire_power t c =
  if
    t.cfg.policy = Config.Power_tm && c.attempt >= 1
    && (t.power_owner = -1 || t.power_owner = c.id)
  then begin
    t.power_owner <- c.id;
    Txn.set_power c.txn true
  end

(* Is core [v]'s transaction protected against requester-wins? *)
let victim_protected t (requester : core) (v : core) =
  let power = t.power_owner = v.id in
  let scl_shield =
    (* Paper §5.2: with CLEAR over PowerTM, S-CL and power transactions nack
       conflicting requests instead of aborting. *)
    v.mode = M_scl && t.cfg.clear_enabled && t.cfg.policy = Config.Power_tm
  in
  ignore requester;
  power || scl_shield

let doom t (v : core) cause line =
  if is_speculating t.cores.(v.id) && Option.is_none v.pending_abort then
    v.pending_abort <- Some (cause, line)

(* Report a line-bearing conflict (doom or NACK) between two mid-AR cores to
   the checker, deduplicated per (aggressor AR, victim AR, line). Pure
   observation: no simulation state is touched, so checked and unchecked
   runs stay bit-identical. *)
let note_conflict t (a : core) (v : core) line =
  match t.check with
  | None -> ()
  | Some col -> (
      match (a.op, v.op) with
      | Some aop, Some vop ->
          let key = (aop.Workload.ar.Isa.Program.id, vop.Workload.ar.Isa.Program.id, line) in
          if not (Hashtbl.mem t.conflict_seen key) then begin
            Hashtbl.replace t.conflict_seen key ();
            Check.Collector.add_conflict col ~time:t.now ~aggressor_core:a.id ~victim_core:v.id
              ~aggressor_ar:aop.Workload.ar ~victim_ar:vop.Workload.ar ~line
          end
      | _ -> ())

(* Record a touched line in the per-attempt footprint. *)
let touch_line t c line =
  t.perf.footprint_inserts <- t.perf.footprint_inserts + 1;
  Simrt.Lineset.add c.attempt_lines line

(* Sorted view of the attempt footprint; the returned array stays valid
   across later attempts (Lineset rebuilds into fresh arrays). *)
let attempt_footprint c = Simrt.Lineset.sorted_view c.attempt_lines

let tracing t = match t.trace with None -> false | Some _ -> true

(* Call sites on the per-operation path guard with [tracing] so the event
   value is not even built when no trace is recorded. *)
let trace_ev t c kind =
  match t.trace with
  | None -> ()
  | Some tr ->
      let ar = match c.op with Some op -> op.Workload.ar.Isa.Program.name | None -> "-" in
      Trace.record tr ~time:t.now ~core:c.id ~ar kind

let mode_string = function
  | M_spec -> "speculative"
  | M_scl -> "S-CL"
  | M_nscl -> "NS-CL"
  | M_fallback -> "fallback"

(* ------------------------------------------------------------------ *)
(* Witness capture (execution oracle)                                  *)

let capturing t = match t.check with None -> false | Some _ -> true

let cap_read t c line = if capturing t then Check.Capbuf.note_read c.cap ~line ~time:t.now

let cap_write t c line = if capturing t then Check.Capbuf.note_write c.cap ~line ~time:t.now

let cap_store t c addr value = if capturing t then Check.Capbuf.note_store c.cap ~addr ~value

let cap_reset c = Check.Capbuf.reset c.cap

(* Callers guard with [capturing], like [trace_ev]'s with [tracing]. *)
let lock_ev t ev =
  match t.check with None -> () | Some col -> Check.Collector.add_lock_event col ev

let witness_mode_of = function
  | M_spec -> Check.Witness.Speculative
  | M_scl -> Check.Witness.Scl
  | M_nscl -> Check.Witness.Nscl
  | M_fallback -> Check.Witness.Fallback


(* Fault injection: accesses the conflict-detection hardware is blind to
   (testing knobs — see Config.fault_blind_line / fault_numa_blind). The
   numa-blind fault drops the conflict probe on every access whose
   cross-socket adder is positive, so remote-socket transactions race
   undetected. *)
let blind t (c : core) line =
  (match t.cfg.fault_blind_line with Some l -> l = line | None -> false)
  || (t.cfg.fault_numa_blind && Mem.Hierarchy.numa_adder t.hierarchy ~core:c.id line > 0)


(* ------------------------------------------------------------------ *)
(* Commit/abort bookkeeping                                            *)

let fig1_close t c =
  (* End of attempt 1: compare footprints for the Figure 1 metric. *)
  match c.footprint0 with
  | Some fp0 when c.attempt = 1 ->
      let fp1 = attempt_footprint c in
      let stable = fp0 = fp1 && Array.length fp0 <= t.cfg.alt_capacity in
      Stats.note_first_abort t.stats ~footprint_stable:stable;
      c.footprint0 <- None
  | Some _ | None -> ()

let cleanup_cl_locks t c =
  if c.mode = M_scl || c.mode = M_nscl || not (List.is_empty c.lock_queue) then begin
    if tracing t || capturing t then
      List.iter
        (fun line ->
          trace_ev t c (Trace.Unlocked line);
          lock_ev t (Check.Lock_safety.Unlock { time = t.now; core = c.id; line }))
        (Mem.Hierarchy.locked_lines t.hierarchy ~core:c.id);
    ignore (Mem.Hierarchy.unlock_all t.hierarchy ~core:c.id : int)
  end;
  c.lock_queue <- [];
  (* Drop whichever hold we have on the fallback lock: the shared hold of a
     CL-mode execution or the exclusive hold of a fallback execution. *)
  Fallback_lock.release (op_lock t c) ~core:c.id;
  c.read_lock_held <- false

let stats_mode_of c =
  match c.mode with
  | M_spec -> Stats.Speculative
  | M_scl -> Stats.Scl
  | M_nscl -> Stats.Nscl
  | M_fallback -> Stats.Fallback_mode

let finish_op c =
  c.ops_done <- c.ops_done + 1;
  c.op <- None;
  c.attempt <- 0;
  c.retries_counted <- 0;
  c.planned <- None;
  c.footprint0 <- None;
  c.phase <- P_next_op

let do_commit t c =
  let op = current_op c in
  (* A committed S-CL resolved the conflicts its CRT-locked reads guarded
     against: decay those entries so hot shared lines do not convoy every
     subsequent S-CL of this core. *)
  if c.mode = M_scl && t.cfg.crt_decay then
    List.iter
      (fun (e : Clear.Alt.entry) ->
        if e.needs_locking && not e.written then Clear.Crt.remove c.crt e.line)
      (Clear.Alt.entries c.alt);
  let drained = if c.mode = M_spec || c.mode = M_scl then Txn.drain c.txn t.store else 0 in
  (match t.check with
  | None -> ()
  | Some col ->
      Check.Collector.add_commit col ~time:t.now ~core:c.id ~ar:op.Workload.ar
        ~init_regs:op.Workload.init_regs ~mode:(witness_mode_of c.mode)
        ~retries:c.retries_counted ~reads:(Check.Capbuf.reads c.cap)
        ~writes:(Check.Capbuf.writes c.cap) ~stores:(Check.Capbuf.stores c.cap));
  Txn.iter_lines c.txn (fun line -> Conflict_map.remove_line t.conflicts ~core:c.id line);
  cleanup_cl_locks t c;
  if capturing t then lock_ev t (Check.Lock_safety.Attempt_end { time = t.now; core = c.id });
  release_power t c;
  Txn.reset c.txn;
  fig1_close t c;
  Clear.Ert.note_commit c.ert ~pc:op.Workload.ar.Isa.Program.id;
  if tracing t then trace_ev t c (Trace.Commit { mode = mode_string c.mode; retries = c.retries_counted });
  Stats.note_commit ~ar:op.Workload.ar.Isa.Program.name t.stats ~mode:(stats_mode_of c)
    ~retries:c.retries_counted;
  t.perf.commits <- t.perf.commits + 1;
  (match t.openq with
  | Some oq when c.req >= 0 ->
      Openq.complete oq ~req:c.req ~now:t.now;
      c.req <- -1
  | Some _ | None -> ());
  finish_op c;
  t.cfg.xend_cost + (drained / 4)

let do_abort t c cause =
  if tracing t then trace_ev t c (Trace.Aborted cause);
  Stats.note_abort t.stats cause;
  t.perf.aborts <- t.perf.aborts + 1;
  Stats.note_wasted_instrs t.stats c.attempt_instrs;
  Txn.iter_lines c.txn (fun line -> Conflict_map.remove_line t.conflicts ~core:c.id line);
  cleanup_cl_locks t c;
  if capturing t then lock_ev t (Check.Lock_safety.Attempt_end { time = t.now; core = c.id });
  release_power t c;
  (* A conflicting read feeds the CRT so the next S-CL locks it too. *)
  (match c.pending_abort with
  | Some (_, Some line) when t.cfg.use_crt && Txn.in_read_set c.txn line && not (Txn.in_write_set c.txn line) ->
      Clear.Crt.insert c.crt line
  | Some _ | None -> ());
  c.pending_abort <- None;
  if c.attempt = 0 then begin
    let fp = attempt_footprint c in
    c.footprint0 <- (if Array.length fp = 0 then None else Some fp)
  end
  else fig1_close t c;
  Txn.reset c.txn;
  if Abort.counts_toward_retry_limit cause then c.retries_counted <- c.retries_counted + 1;
  c.attempt <- c.attempt + 1;
  (* PowerTM: a transaction aborted by a conflict reserves the power token
     right away, so its retry runs with conflict priority. Fallback-related
     aborts do not reserve — the retry would only spin on the lock while
     squatting on the token. *)
  (match cause with
  | Abort.Memory_conflict | Abort.Nacked ->
      if t.cfg.policy = Config.Power_tm && t.power_owner = -1 then t.power_owner <- c.id
  | Abort.Explicit_fallback | Abort.Other_fallback | Abort.Capacity | Abort.Scl_deviation
  | Abort.Other ->
      ());
  c.failed_mode <- false;
  c.discovery <- false;
  c.phase <- P_start;
  t.cfg.abort_penalty

(* Abort the speculating transactions subscribed to the acquired fallback
   lock: all of them under HTM (single global lock), only the elisions of the
   same mutex under SLE. *)
let doom_all_speculators t ~except ~lock_id =
  Array.iter
    (fun v ->
      if v.id <> except && is_speculating v then begin
        let subscribed =
          match t.cfg.frontend with
          | Config.Htm -> true
          | Config.Sle -> (
              match v.op with
              | Some op -> op.Workload.lock_id = lock_id
              | None -> false)
        in
        if subscribed then doom t v Abort.Other_fallback None
      end)
    t.cores

(* ------------------------------------------------------------------ *)
(* Discovery bookkeeping                                               *)

let record_in_alt _t c line ~written =
  if c.discovery && not c.alt_overflow then
    match Clear.Alt.record c.alt line ~written with
    | `Ok -> ()
    | `Overflow ->
        c.alt_overflow <- true;
        let op = current_op c in
        (match Clear.Ert.lookup c.ert ~pc:op.Workload.ar.Isa.Program.id with
        | Some e -> Clear.Ert.mark_not_convertible e
        | None -> ())

let end_of_discovery_decision t c =
  (* Failed-mode discovery reached the end of the AR: hierarchical
     assessment (paper Figure 2), then the abort proceeds. *)
  let op = current_op c in
  let pc = op.Workload.ar.Isa.Program.id in
  let fits = (not c.alt_overflow) && not c.sq_overflow in
  let lockable =
    fits && Mem.Cache.would_fit (Mem.Hierarchy.l1 t.hierarchy ~core:c.id) (Clear.Alt.lines c.alt)
  in
  let immutable = not c.indirection_seen in
  (match Clear.Ert.lookup c.ert ~pc with
  | Some e ->
      if not lockable then Clear.Ert.mark_not_convertible e;
      if not immutable then Clear.Ert.mark_not_immutable e
  | None -> ());
  let assessment = { Clear.Decision.fits_window = fits; lockable; immutable } in
  let decision = Clear.Decision.decide assessment in
  (match t.check with
  | Some col ->
      Check.Collector.add_decision col ~time:t.now ~core:c.id ~ar:op.Workload.ar ~decision
  | None -> ());
  c.planned <-
    (match decision with
    | Clear.Decision.Speculative_retry -> None
    | (Clear.Decision.Ns_cl | Clear.Decision.S_cl) as m -> Some m);
  match c.planned with
  | Some m -> trace_ev t c (Trace.Converted (Clear.Decision.mode_name m))
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Memory-instruction semantics                                        *)

exception Abort_now of Abort.cause

(* The access reached a remotely locked line and the requester is not itself
   holding cacheline locks: the directory retries the request (paper Figure
   6), so the instruction stalls and re-issues. *)
exception Stall_now

(* Charge latency and check capacity: evicting a line of our own speculative
   set aborts the transaction. *)
let check_evictions c outcome =
  let victim = outcome.Mem.Hierarchy.l1_victim in
  if victim >= 0 && Txn.in_either_set c.txn victim then raise (Abort_now Abort.Capacity)

(* In S-CL mode the core holds cacheline locks, so a request that reaches a
   remotely locked line must be nacked (abort) to break lock cycles (paper
   Figure 5). A plain speculative core holds no locks and simply retries the
   request until the holder's AR completes. *)
let blocked_by_remote_lock t c line =
  let holder = Mem.Hierarchy.locked_by t.hierarchy line in
  if holder >= 0 && holder <> c.id then
    if c.mode = M_scl then begin
      note_conflict t c t.cores.(holder) line;
      raise (Abort_now Abort.Nacked)
    end
    else raise Stall_now

(* Loads write their destination register and return the latency to
   charge. *)
let spec_load t c ~dst addr =
  let line = Mem.Addr.line_of addr in
  touch_line t c line;
  blocked_by_remote_lock t c line;
  if (not c.failed_mode) && not (blind t c line) then begin
    let wmask = Conflict_map.writers_excl t.conflicts ~core:c.id line in
    t.perf.conflict_checks <- t.perf.conflict_checks + 1;
    if wmask <> 0 then begin
      t.perf.conflict_hits <- t.perf.conflict_hits + 1;
      Conflict_map.iter_cores wmask (fun w ->
          let v = t.cores.(w) in
          note_conflict t c v line;
          if victim_protected t c v then raise (Abort_now Abort.Nacked)
          else doom t v Abort.Memory_conflict (Some line))
    end
  end;
  let outcome = Mem.Hierarchy.read_line t.hierarchy ~core:c.id line in
  check_evictions c outcome;
  Txn.read_line c.txn line;
  if (not c.failed_mode) && not (blind t c line) then Conflict_map.add_reader t.conflicts ~core:c.id line;
  record_in_alt t c line ~written:false;
  cap_read t c line;
  t.perf.store_forward_scans <- t.perf.store_forward_scans + 1;
  Regfile.define_load c.regs ~dst (Txn.load c.txn t.store addr);
  outcome.Mem.Hierarchy.latency

let spec_store t c addr value =
  let line = Mem.Addr.line_of addr in
  touch_line t c line;
  record_in_alt t c line ~written:true;
  if c.failed_mode then begin
    (* Failed mode: stores stay in the SQ, no coherence traffic. *)
    if Txn.store_count c.txn >= t.cfg.sq_entries then begin
      c.sq_overflow <- true;
      let op = current_op c in
      Clear.Ert.note_sq_full c.ert ~pc:op.Workload.ar.Isa.Program.id;
      raise (Abort_now c.failed_cause)
    end;
    Txn.buffer_store c.txn addr value;
    Txn.write_line c.txn line;
    cap_write t c line;
    cap_store t c addr value;
    (* SQ insertion only. *)
    1
  end
  else begin
    blocked_by_remote_lock t c line;
    if not (blind t c line) then begin
      let mask =
        Conflict_map.writers_excl t.conflicts ~core:c.id line
        lor Conflict_map.readers_excl t.conflicts ~core:c.id line
      in
      t.perf.conflict_checks <- t.perf.conflict_checks + 1;
      if mask <> 0 then begin
        t.perf.conflict_hits <- t.perf.conflict_hits + 1;
        Conflict_map.iter_cores mask (fun w ->
            let v = t.cores.(w) in
            note_conflict t c v line;
            if victim_protected t c v then raise (Abort_now Abort.Nacked)
            else doom t v Abort.Memory_conflict (Some line))
      end
    end;
    let outcome = Mem.Hierarchy.write_line t.hierarchy ~core:c.id line in
    check_evictions c outcome;
    Txn.buffer_store c.txn addr value;
    Txn.write_line c.txn line;
    if not (blind t c line) then Conflict_map.add_writer t.conflicts ~core:c.id line;
    cap_write t c line;
    cap_store t c addr value;
    outcome.Mem.Hierarchy.latency
  end

(* NS-CL: all accesses hit lines we hold locked; reads/writes go straight to
   memory. Deviation from the learned footprint means the immutability
   assessment was wrong — defensively fall back to a speculative retry. *)
let nscl_load t c ~dst addr =
  let line = Mem.Addr.line_of addr in
  touch_line t c line;
  if Mem.Hierarchy.locked_by t.hierarchy line <> c.id then raise (Abort_now Abort.Scl_deviation);
  let outcome = Mem.Hierarchy.read_line t.hierarchy ~core:c.id line in
  cap_read t c line;
  Regfile.define_load c.regs ~dst (Mem.Store.read t.store addr);
  outcome.Mem.Hierarchy.latency

let nscl_store t c addr value =
  let line = Mem.Addr.line_of addr in
  touch_line t c line;
  if Mem.Hierarchy.locked_by t.hierarchy line <> c.id then raise (Abort_now Abort.Scl_deviation);
  let outcome = Mem.Hierarchy.write_line t.hierarchy ~core:c.id line in
  Mem.Store.write t.store addr value;
  cap_write t c line;
  cap_store t c addr value;
  outcome.Mem.Hierarchy.latency

(* S-CL: locked lines are safe; other accesses stay speculative with conflict
   detection armed. *)
let scl_load t c ~dst addr =
  let line = Mem.Addr.line_of addr in
  if Mem.Hierarchy.locked_by t.hierarchy line = c.id then begin
    touch_line t c line;
    let outcome = Mem.Hierarchy.read_line t.hierarchy ~core:c.id line in
    cap_read t c line;
    t.perf.store_forward_scans <- t.perf.store_forward_scans + 1;
    Regfile.define_load c.regs ~dst (Txn.load c.txn t.store addr);
    outcome.Mem.Hierarchy.latency
  end
  else spec_load t c ~dst addr

let scl_store t c addr value =
  let line = Mem.Addr.line_of addr in
  if Mem.Hierarchy.locked_by t.hierarchy line = c.id then begin
    touch_line t c line;
    let outcome = Mem.Hierarchy.write_line t.hierarchy ~core:c.id line in
    Txn.buffer_store c.txn addr value;
    Txn.write_line c.txn line;
    cap_write t c line;
    cap_store t c addr value;
    outcome.Mem.Hierarchy.latency
  end
  else spec_store t c addr value

let fallback_load t c ~dst addr =
  let line = Mem.Addr.line_of addr in
  touch_line t c line;
  let outcome = Mem.Hierarchy.read_line t.hierarchy ~core:c.id line in
  cap_read t c line;
  Regfile.define_load c.regs ~dst (Mem.Store.read t.store addr);
  outcome.Mem.Hierarchy.latency

let fallback_store t c addr value =
  let line = Mem.Addr.line_of addr in
  touch_line t c line;
  (* Unprotected fallback stores clash with any straggling speculative
     reader/writer (they subscribed to the lock but may not have processed
     the abort yet). *)
  let mask =
    Conflict_map.writers_excl t.conflicts ~core:c.id line
    lor Conflict_map.readers_excl t.conflicts ~core:c.id line
  in
  t.perf.conflict_checks <- t.perf.conflict_checks + 1;
  if mask <> 0 then begin
    t.perf.conflict_hits <- t.perf.conflict_hits + 1;
    Conflict_map.iter_cores mask (fun w ->
        note_conflict t c t.cores.(w) line;
        doom t t.cores.(w) Abort.Other_fallback (Some line))
  end;
  let outcome = Mem.Hierarchy.write_line t.hierarchy ~core:c.id line in
  Mem.Store.write t.store addr value;
  cap_write t c line;
  cap_store t c addr value;
  outcome.Mem.Hierarchy.latency

(* ------------------------------------------------------------------ *)
(* One instruction                                                     *)

(* A memory access or branch retired with a tainted source operand. *)
let note_indirection c operand =
  if Regfile.operand_tainted c.regs operand then c.indirection_seen <- true

(* [exec_instr]'s result for [Halt]; every other instruction returns its
   latency, which is never negative. *)
let halted = -1

let exec_instr t c =
  let op = current_op c in
  let body = op.Workload.ar.Isa.Program.body in
  if c.pc < 0 || c.pc >= Array.length body then failwith "Engine: PC out of range";
  let instr = body.(c.pc) in
  c.attempt_instrs <- c.attempt_instrs + 1;
  if c.attempt_instrs > max_ar_instrs then
    failwith (Printf.sprintf "Engine: AR %s exceeded %d instructions (runaway loop?)" op.Workload.ar.Isa.Program.name max_ar_instrs);
  Stats.note_instr t.stats;
  let base = I.base_cost instr in
  match instr with
  | I.Halt -> halted
  | I.Nop ->
      c.pc <- c.pc + 1;
      base
  | I.Mov { dst; src } ->
      Regfile.define_alu c.regs ~dst src src (Regfile.operand c.regs src);
      c.pc <- c.pc + 1;
      base
  | I.Binop { op = bop; dst; a; b } ->
      let v = I.eval_binop bop (Regfile.operand c.regs a) (Regfile.operand c.regs b) in
      Regfile.define_alu c.regs ~dst a b v;
      c.pc <- c.pc + 1;
      base
  | I.Jmp target ->
      c.pc <- target;
      base
  | I.Br { cond; a; b; target } ->
      note_indirection c a;
      note_indirection c b;
      let taken = I.eval_cond cond (Regfile.operand c.regs a) (Regfile.operand c.regs b) in
      c.pc <- (if taken then target else c.pc + 1);
      base
  | I.Ld { dst; base = baseop; off; region = _ } ->
      note_indirection c baseop;
      let addr = Regfile.operand c.regs baseop + off in
      let latency =
        match c.mode with
        | M_spec -> spec_load t c ~dst addr
        | M_scl -> scl_load t c ~dst addr
        | M_nscl -> nscl_load t c ~dst addr
        | M_fallback -> fallback_load t c ~dst addr
      in
      c.pc <- c.pc + 1;
      base + latency
  | I.St { base = baseop; off; src; region = _ } ->
      note_indirection c baseop;
      let addr = Regfile.operand c.regs baseop + off in
      let value = Regfile.operand c.regs src in
      let latency =
        match c.mode with
        | M_spec -> spec_store t c addr value
        | M_scl -> scl_store t c addr value
        | M_nscl -> nscl_store t c addr value
        | M_fallback -> fallback_store t c addr value
      in
      c.pc <- c.pc + 1;
      base + latency

(* ------------------------------------------------------------------ *)
(* Phase steps: each returns the latency until this core's next event.  *)

let begin_attempt_common c =
  let op = current_op c in
  Regfile.load_initial c.regs op.Workload.init_regs;
  c.pc <- 0;
  c.attempt_instrs <- 0;
  c.indirection_seen <- false;
  c.alt_overflow <- false;
  c.sq_overflow <- false;
  c.failed_mode <- false;
  Simrt.Lineset.clear c.attempt_lines;
  cap_reset c;
  c.phase <- P_exec

let start_speculative t c =
  let op = current_op c in
  c.mode <- M_spec;
  if tracing t then trace_ev t c (Trace.Begin_attempt { attempt = c.attempt; mode = "speculative" });
  if capturing t then lock_ev t (Check.Lock_safety.Attempt_begin { time = t.now; core = c.id });
  Txn.start c.txn;
  try_acquire_power t c;
  c.discovery <-
    t.cfg.clear_enabled
    &&
    (let e = Clear.Ert.lookup_or_insert c.ert ~pc:op.Workload.ar.Isa.Program.id in
     Clear.Ert.discovery_enabled e);
  if c.discovery then Clear.Alt.reset c.alt;
  begin_attempt_common c;
  c.explicit_fb_counted <- false;
  t.cfg.xbegin_cost

let start_cl t c (mode : Clear.Decision.mode) =
  (* Read-lock the fallback lock, then queue the cacheline locks. *)
  if Fallback_lock.try_read_lock (op_lock t c) ~core:c.id then begin
    c.read_lock_held <- true;
    if capturing t then lock_ev t (Check.Lock_safety.Attempt_begin { time = t.now; core = c.id });
    let lock_all = mode = Clear.Decision.Ns_cl in
    Clear.Alt.prepare_locking c.alt ~lock_all ~extra:(fun line -> t.cfg.use_crt && Clear.Crt.mem c.crt line);
    c.lock_queue <- Clear.Alt.to_lock c.alt;
    c.mode <- (if mode = Clear.Decision.Ns_cl then M_nscl else M_scl);
    if c.mode = M_scl then Txn.start c.txn;
    c.phase <- P_lock;
    t.cfg.xbegin_cost
  end
  else (* fallback execution in flight: spin on the read lock *)
    t.cfg.spin_cycles

let step_start t c =
  if c.retries_counted > t.cfg.max_retries then begin
    (* Fallback path: acquire the global lock exclusively. *)
    let lock = op_lock t c in
    Fallback_lock.announce_writer lock ~core:c.id;
    if Fallback_lock.try_write_lock lock ~core:c.id then begin
      doom_all_speculators t ~except:c.id ~lock_id:(current_op c).Workload.lock_id;
      c.mode <- M_fallback;
      if tracing t then trace_ev t c (Trace.Begin_attempt { attempt = c.attempt; mode = "fallback" });
      if capturing t then lock_ev t (Check.Lock_safety.Attempt_begin { time = t.now; core = c.id });
      c.planned <- None;
      begin_attempt_common c;
      t.cfg.xbegin_cost
    end
    else t.cfg.spin_cycles
  end
  else
    match c.planned with
    | Some mode when t.cfg.clear_enabled -> start_cl t c mode
    | Some _ | None ->
        if Fallback_lock.writer_held (op_lock t c) then begin
          (* Explicit fallback: we tried to start but the lock is taken. *)
          if not c.explicit_fb_counted then begin
            Stats.note_abort t.stats Abort.Explicit_fallback;
            c.explicit_fb_counted <- true
          end;
          t.cfg.spin_cycles
        end
        else start_speculative t c

let step_lock t c =
  match c.lock_queue with
  | [] ->
      (* All locks held: run the body. *)
      begin_attempt_common c;
      1
  | entry :: rest -> (
      match Mem.Hierarchy.lock_line t.hierarchy ~core:c.id entry.Clear.Alt.line with
      | `Acquired outcome ->
          (* Locking implies exclusivity: any speculative transaction holding
             the line in its sets loses it (the lock's invalidation is a
             conflicting request it cannot win). *)
          let line = entry.Clear.Alt.line in
          let mask =
            Conflict_map.writers_excl t.conflicts ~core:c.id line
            lor Conflict_map.readers_excl t.conflicts ~core:c.id line
          in
          Conflict_map.iter_cores mask (fun w ->
              note_conflict t c t.cores.(w) line;
              doom t t.cores.(w) Abort.Memory_conflict (Some line));
          if tracing t then trace_ev t c (Trace.Locked line);
          if capturing t then
            lock_ev t
              (Check.Lock_safety.Lock
                 { time = t.now; core = c.id; line; key = entry.Clear.Alt.dir_set });
          Clear.Alt.mark_locked entry;
          c.lock_queue <- rest;
          (* Lexicographically ordered locking is pipelined: charge the
             issue slot, and the transfer only when data had to move. *)
          let latency = Int.max 2 (outcome.Mem.Hierarchy.latency / 2) in
          Simrt.Counter.bump t.lock_phase_cycles latency;
          latency
      | `Held_by _ ->
          (* Owner will release at its AR end; retry (directory unblocks the
             entry rather than queueing us — paper Figure 6). *)
          Simrt.Counter.bump t.lock_phase_cycles (t.cfg.spin_cycles / 2);
          t.cfg.spin_cycles / 2)

let enter_failed_mode t c cause =
  trace_ev t c Trace.Enter_failed_mode;
  c.failed_mode <- true;
  c.failed_cause <- cause;
  (* Our accesses are non-aborting from now on: withdraw from conflict
     detection so we damage no other transaction. *)
  Txn.iter_lines c.txn (fun line -> Conflict_map.remove_line t.conflicts ~core:c.id line);
  c.pending_abort <- None

let step_exec t c =
  (* Doom processing first. *)
  match c.pending_abort with
  | Some (cause, _line) when
      c.mode = M_spec && c.discovery && (not c.failed_mode) && cause = Abort.Memory_conflict
      && t.cfg.failed_mode_discovery && not c.alt_overflow ->
      enter_failed_mode t c cause;
      1
  | Some (cause, _) -> do_abort t c cause
  | None -> (
      match exec_instr t c with
      | latency when latency <> halted ->
          (* In-core speculation (SLE) is bounded by the ROB and SQ: a region
             that outgrows the window cannot complete speculatively (paper
             §4.1, assessment 1). NS-CL and fallback run non-speculatively
             and retire freely. *)
          if
            t.cfg.frontend = Config.Sle
            && (c.mode = M_spec || c.mode = M_scl)
            && (c.attempt_instrs > t.cfg.rob_entries || Txn.store_count c.txn > t.cfg.sq_entries)
          then begin
            let op = current_op c in
            (match Clear.Ert.lookup c.ert ~pc:op.Workload.ar.Isa.Program.id with
            | Some e -> Clear.Ert.mark_not_convertible e
            | None -> ());
            do_abort t c Abort.Capacity
          end
          else begin
            if c.failed_mode then Stats.note_failed_discovery_cycles t.stats latency;
            latency
          end
      | _ ->
          if c.failed_mode then begin
            end_of_discovery_decision t c;
            do_abort t c c.failed_cause
          end
          else do_commit t c
      | exception Stall_now ->
          (* Re-issue the same instruction once the holder has had time to
             make progress. The PC did not advance. *)
          c.attempt_instrs <- c.attempt_instrs - 1;
          let latency = t.cfg.spin_cycles / 2 in
          Simrt.Counter.bump t.stall_cycles latency;
          if c.failed_mode then Stats.note_failed_discovery_cycles t.stats latency;
          latency
      | exception Abort_now cause ->
          if c.mode = M_spec && c.discovery && (not c.failed_mode) && cause = Abort.Memory_conflict
             && t.cfg.failed_mode_discovery && not c.alt_overflow
          then begin
            enter_failed_mode t c cause;
            1
          end
          else begin
            (* Non-memory aborts mark the region non-discoverable. *)
            (match cause with
            | Abort.Capacity | Abort.Other ->
                let op = current_op c in
                (match Clear.Ert.lookup c.ert ~pc:op.Workload.ar.Isa.Program.id with
                | Some e -> Clear.Ert.mark_not_convertible e
                | None -> ())
            | Abort.Scl_deviation ->
                let op = current_op c in
                (match Clear.Ert.lookup c.ert ~pc:op.Workload.ar.Isa.Program.id with
                | Some e ->
                    Clear.Ert.mark_not_immutable e;
                    Clear.Ert.mark_not_convertible e
                | None -> ());
                c.planned <- None
            | Abort.Memory_conflict | Abort.Nacked | Abort.Explicit_fallback | Abort.Other_fallback -> ());
            do_abort t c cause
          end)

(* Pull the next operation from the driver and charge its think time. The
   driver call is shared by both frontends; only the decision of *whether*
   there is a next operation differs. *)
let issue_op t c =
  let op =
    match t.check with
    | None -> c.driver ()
    | Some col ->
        (* Drivers may write the store outside any AR (thread-private
           scratch, e.g. labyrinth's path buffers). Capture those writes so
           the replay oracle can apply them at the right point. *)
        let rev = ref [] in
        let op =
          Mem.Store.with_observer t.store
            (fun a v -> rev := (a, v) :: !rev)
            (fun () -> c.driver ())
        in
        Check.Collector.add_driver_writes col ~time:t.now ~core:c.id ~stores:(List.rev !rev);
        op
  in
  c.op <- Some op;
  c.phase <- P_start;
  c.attempt <- 0;
  c.retries_counted <- 0;
  c.planned <- None;
  (* Per-core pacing from the schedule profile (the symmetric default is
     the legacy think_cycles + U[0, think/2] draw, bit-for-bit). The
     workload's own extra_think rides on top regardless of profile. *)
  let think =
    Sched.Profile.sample_think t.cfg.sched ~core:c.id ~base:t.cfg.think_cycles c.rng
  in
  think + op.Workload.extra_think

let step_next_op t c =
  match t.openq with
  | None ->
      if c.ops_done >= Sched.Profile.ops_for t.cfg.sched ~core:c.id ~base:t.cfg.ops_per_thread
      then begin
        c.finished <- true;
        c.phase <- P_done;
        0
      end
      else issue_op t c
  | Some oq -> (
      (* Open-system frontend: the clock and the workload are decoupled.
         Admission is lazy but exact — every dispatch attempt first moves all
         arrivals up to [now] into the backlog, so FIFO order and drop
         decisions depend only on virtual time, never on host scheduling. *)
      Openq.admit_until oq ~now:t.now;
      match Openq.dispatch oq ~now:t.now with
      | Some req ->
          c.req <- req;
          issue_op t c
      | None ->
          if Openq.exhausted oq then begin
            c.finished <- true;
            c.phase <- P_done;
            0
          end
          else
            (* Backlog empty but more requests are coming: park until the
               next arrival. Draws nothing from the RNG. *)
            Int.max 1 (Openq.next_arrival oq - t.now))

let step t c =
  match c.phase with
  | P_next_op -> step_next_op t c
  | P_start -> step_start t c
  | P_lock -> step_lock t c
  | P_exec -> step_exec t c
  | P_done -> 0

(* Minor-heap words this domain has allocated so far, exact at any point.
   [Gc.quick_stat]'s totals are brought up to date only at collections, so
   they would misread a short run by up to a minor heap's worth of words.
   Blocks too large for the minor heap (page copies) go straight to the
   major heap and are not counted. *)
let gc_words () = Gc.minor_words ()

(* Fold the request queue's end-of-run totals into the perf record — off the
   per-event datapath, so the open counters cost nothing when unused. *)
let sync_open_perf t =
  match t.openq with
  | None -> ()
  | Some oq ->
      t.perf.open_arrivals <- t.perf.open_arrivals + Openq.admitted oq;
      t.perf.open_dropped <- t.perf.open_dropped + Openq.dropped oq;
      t.perf.open_completed <- t.perf.open_completed + Openq.completed oq;
      t.perf.open_qdepth_hw <- max t.perf.open_qdepth_hw (Openq.qdepth_hw oq)

(* Streaming-oracle memory counters, synced once at end of run like the
   open-queue totals above. Accumulating collectors report nothing here. *)
let sync_check_perf t =
  match t.check with
  | None -> ()
  | Some col -> (
      match Check.Collector.stream_stats col with
      | None -> ()
      | Some (live_hw, retired) ->
          t.perf.check_live_lines <- max t.perf.check_live_lines live_hw;
          t.perf.check_retired <- t.perf.check_retired + retired)

let livelock_fail t =
  let dump =
    Array.to_list t.cores
    |> List.map (fun c ->
           Printf.sprintf "core %d: phase=%s mode=%s attempt=%d retries=%d planned=%s op=%s"
             c.id
             (match c.phase with
             | P_next_op -> "next_op"
             | P_start -> "start"
             | P_lock -> "lock"
             | P_exec -> "exec"
             | P_done -> "done")
             (match c.mode with
             | M_spec -> "spec"
             | M_scl -> "scl"
             | M_nscl -> "nscl"
             | M_fallback -> "fallback")
             c.attempt c.retries_counted
             (match c.planned with
             | None -> "-"
             | Some m -> Clear.Decision.mode_name m)
             (match c.op with
             | None -> "-"
             | Some op -> op.Workload.ar.Isa.Program.name))
    |> String.concat "\n"
  in
  failwith
    (Printf.sprintf
       "Engine.run: max_cycles exceeded (livelock?); fallback writer=%s readers=[%s]\n%s"
       (match Fallback_lock.writer t.lock0 with
       | Some w -> string_of_int w
       | None -> "-")
       (String.concat "," (List.map string_of_int (Fallback_lock.readers t.lock0)))
       dump)

let run_sequential ~max_cycles t =
  let words_before = gc_words () in
  let remaining = ref (Array.length t.cores) in
  let last_time = ref 0 in
  let continue = ref true in
  while !continue && !remaining > 0 do
    if Event_queue.is_empty t.queue then
      failwith "Engine.run: event queue drained with unfinished threads";
    (* The stepped core's event stays at the front while it steps; the
       queue pops it only when the core finishes or moves to a lane. *)
    let time = Event_queue.min_time t.queue in
    let id = Event_queue.min_payload t.queue in
    t.perf.events_popped <- t.perf.events_popped + 1;
    if time > max_cycles then livelock_fail t;
    t.now <- time;
    let c = t.cores.(id) in
    let picking = c.phase = P_next_op in
    let latency = step t c in
    if c.finished then begin
      ignore (Event_queue.pop_min t.queue : int);
      decr remaining;
      last_time := Int.max !last_time time
    end
    else begin
      Stats.add_busy_cycles t.stats latency;
      let at = time + Int.max 1 latency in
      (* A core that stays in [P_next_op] is parked until the next
         unadmitted arrival, a time that only moves forward, so it waits on
         a FIFO lane instead of being sifted into the heap (DESIGN.md
         §7b). *)
      if picking && c.phase = P_next_op then Event_queue.requeue t.queue t.arrival_lane ~time:at id
      else Event_queue.replace_min t.queue ~time:at id
    end;
    if !remaining = 0 then continue := false
  done;
  Stats.set_total_cycles t.stats !last_time;
  t.perf.sims <- t.perf.sims + 1;
  t.perf.allocated_words <- t.perf.allocated_words + int_of_float (gc_words () -. words_before);
  sync_open_perf t;
  sync_check_perf t;
  t.stats

(* ------------------------------------------------------------------ *)
(* Windowed conservative PDES driver (DESIGN.md §12).

   The sequential loop interleaves cores through one global queue in
   (time, push-order) order. [run_pdes] produces bit-identical output while
   letting the globally earliest core drain a private burst of events
   without re-entering the global selection:

   - basic burst: while the leader's next event is strictly earlier than
     every other core's pending event, executing it eagerly IS the
     sequential order — no proof needed. This is the dynamic
     next-conflict-time bound and is always available.
   - extended burst: a leader mid-speculation (P_exec, M_spec, HTM
     frontend, requester-wins, no trace/check observers) may also run past
     peers' pending times when every active peer is provably insulated:
     both sides' static line footprints ({!Staticcheck.Footprint}) resolve,
     are line- and L3-set-disjoint, neither side's private caches hold any
     of the other side's lines, and the peer provably cannot commit or
     enter the fallback path (doom_all / global-lock acquisition) for at
     least [slack] more cycles. Under those facts every leader event
     executed before the bound commutes with every peer event it overtakes,
     so state, stats and both cores' event streams are unchanged. Regions
     whose footprint the interval domain lost (Cany sites, unresolvable
     bindings) simply never extend — they fall back to basic bursts.

   Sequence numbers are the subtle part: the sequential driver breaks time
   ties by push order, and an overtaking burst pushes events "too early" in
   wall order. While any reordering is live ("dirty") the driver ignores
   raw seq numbers and breaks ties by the virtual push order, reconstructed
   by walking each core's chain of executed-ancestor event times (the
   chain that bottoms out in the pre-reorder clean prefix is older; two
   chains bottoming out together compare by the clean seqs captured when
   the reorder began). Once every pending event post-dates the reordered
   span, pending events are renumbered in virtual push order and cheap
   integer tie-breaking resumes. *)

(* Cap on per-core ancestor-history length while dirty; beyond it new
   extensions are blocked (basic bursts only) until the next sync, bounding
   memory without affecting output. *)
let hist_cap = 1 lsl 16

let run_pdes ~max_cycles t (p : Pdes.t) =
  let words_before = gc_words () in
  let n = Array.length t.cores in
  let perf = t.perf in
  let cfg = t.cfg in
  (* One static bundle per AR, computed lazily at first extension attempt. *)
  let statics : (int, Staticcheck.Footprint.t) Hashtbl.t = Hashtbl.create 16 in
  let static_of (ar : Isa.Program.ar) =
    match Hashtbl.find_opt statics ar.Isa.Program.id with
    | Some b -> b
    | None ->
        let b = Staticcheck.Footprint.of_ar ar in
        Hashtbl.add statics ar.Isa.Program.id b;
        b
  in
  (* Per-core pending event (time, seq); time -1 = finished. *)
  let ev_time = Array.make n (-1) in
  let ev_seq = Array.make n 0 in
  let next_seq = ref 0 in
  (* Per-core resolved footprint, cached per op (physical equality). *)
  let fp_op : Workload.op option array = Array.make n None in
  let fp_lines : int array option array = Array.make n None in
  let fp_sets : int array option array = Array.make n None in
  (* Dirty-span bookkeeping: executed-ancestor time chains. *)
  let dirty = ref false in
  let high_water = ref 0 in
  let hist = Array.make n [||] in
  let hist_len = Array.make n 0 in
  let hist_max = ref 0 in
  let base_seq = Array.make n 0 in
  let remaining = ref 0 in
  let last_time = ref 0 in
  (* Seed from the creation-time queue (drained in exact pop order, so the
     implied seqs are 0..k-1 in that order). *)
  List.iter
    (fun (time, id) ->
      ev_time.(id) <- time;
      ev_seq.(id) <- !next_seq;
      incr next_seq;
      incr remaining)
    (Event_queue.pop_until t.queue ~time:max_int);
  if !remaining = 0 then failwith "Engine.run: event queue drained with unfinished threads";
  (* Virtual push order of two pending events: walk executed-ancestor times
     backward while equal. A chain that bottoms out first is older — its
     ancestor executed in the clean prefix, whose times never exceed any
     dirty-span execution time, and a clean-prefix tie was already resolved
     in its favour by the clean selection order. Both bottoming out
     together compare by the clean seqs captured at dirty-start. *)
  let rec push_before a b k =
    let la = hist_len.(a) and lb = hist_len.(b) in
    if k > la && k > lb then base_seq.(a) < base_seq.(b)
    else if k > la then true
    else if k > lb then false
    else
      let ta = hist.(a).(la - k) and tb = hist.(b).(lb - k) in
      if ta <> tb then ta < tb else push_before a b (k + 1)
  in
  let before a b =
    ev_time.(a) < ev_time.(b)
    || (ev_time.(a) = ev_time.(b)
       && if !dirty then push_before a b 1 else ev_seq.(a) < ev_seq.(b))
  in
  let hist_append id time =
    let h = hist.(id) in
    let len = hist_len.(id) in
    if len = Array.length h then begin
      let nh = Array.make (max 64 (2 * len)) 0 in
      Array.blit h 0 nh 0 len;
      hist.(id) <- nh
    end;
    hist.(id).(len) <- time;
    hist_len.(id) <- len + 1;
    if len + 1 > !hist_max then hist_max := len + 1
  in
  (* Execute core [id]'s pending event; returns its virtual time. *)
  let exec_event id =
    let time = ev_time.(id) in
    t.now <- time;
    if !dirty then begin
      hist_append id time;
      if time > !high_water then high_water := time
    end;
    perf.Simrt.Perfctr.events_popped <- perf.Simrt.Perfctr.events_popped + 1;
    let c = t.cores.(id) in
    let latency = step t c in
    if c.finished then begin
      ev_time.(id) <- -1;
      decr remaining;
      last_time := Int.max !last_time time
    end
    else begin
      Stats.add_busy_cycles t.stats latency;
      ev_time.(id) <- time + Int.max 1 latency;
      ev_seq.(id) <- !next_seq;
      incr next_seq
    end;
    time
  in
  let sorted_distinct arr =
    Array.sort Int.compare arr;
    let m = Array.length arr in
    if m <= 1 then arr
    else begin
      let w = ref 1 in
      for i = 1 to m - 1 do
        if arr.(i) <> arr.(!w - 1) then begin
          arr.(!w) <- arr.(i);
          incr w
        end
      done;
      Array.sub arr 0 !w
    end
  in
  let disjoint a b =
    let la = Array.length a and lb = Array.length b in
    let i = ref 0 and j = ref 0 and ok = ref true in
    while !ok && !i < la && !j < lb do
      if a.(!i) = b.(!j) then ok := false
      else if a.(!i) < b.(!j) then incr i
      else incr j
    done;
    !ok
  in
  (* Resolved (lines, l3 sets) of [id]'s current op, or None. Exact line
     sets resolve as before; when enumeration hits the expansion cap or an
     indirection is bounded only by its region extent ([Cregion]), fall
     back to the sound line-interval cover and — when it is small enough —
     expand it into the same sorted-lines form, so cover disjointness
     reuses the one proof below. Covers too large to expand are refused:
     a pool-sized extent spans every L3 set, so the footprint argument
     could never discharge it anyway (the phase-window arms handle those
     peers instead). *)
  let cover_expand_cap = 64 in
  let resolve_fp b ~init =
    let lines, capped, cls =
      match Staticcheck.Footprint.lines_for_r b ~init with
      | `Lines lines -> (Some lines, false, `Exact)
      | (`Capped | `Unresolvable) as miss -> (
          let capped = miss = `Capped in
          match Staticcheck.Footprint.lines_cover b ~init with
          | Some cover
            when Array.fold_left (fun acc (lo, hi) -> acc + hi - lo + 1) 0 cover
                 <= cover_expand_cap ->
              let out = ref [] in
              for si = Array.length cover - 1 downto 0 do
                let lo, hi = cover.(si) in
                for l = hi downto lo do
                  out := l :: !out
                done
              done;
              (Some (Array.of_list !out), capped, `Cover)
          | Some _ | None -> (None, capped, `Unres))
    in
    let res =
      match lines with
      | None -> None
      | Some lines ->
          Some
            ( lines,
              sorted_distinct (Array.map (fun l -> Mem.Hierarchy.l3_set_of t.hierarchy l) lines)
            )
    in
    ((capped, cls), res)
  in
  (* Register-independent regions (no [Crel] site) resolve to the same
     footprint for every op, so the (lines, sets) pair is memoized per AR;
     the shared arrays are safe because the consumers below only read them.
     Counters still tick once per op-cache miss so the static_cover_*
     census stays a per-resolution count either way. *)
  let fp_memo :
      (int, (bool * [ `Exact | `Cover | `Unres ]) * (int array * int array) option) Hashtbl.t =
    Hashtbl.create 16
  in
  let footprint_of id =
    let c = t.cores.(id) in
    match c.op with
    | None -> None
    | Some op ->
        (match fp_op.(id) with
        | Some o when o == op -> ()
        | _ ->
            fp_op.(id) <- Some op;
            let b = static_of op.Workload.ar in
            let init = op.Workload.init_regs in
            (* The resolution is init-independent when no site is
               register-relative, when an unbounded site forces
               [`Unresolvable] under every binding, or when a single site's
               span guarantees both [`Capped] enumeration and an
               unexpandable cover — exactly the pointer-chasing regions
               whose per-op re-resolution would otherwise dominate the
               extension path. *)
            let init_independent =
              (not (Staticcheck.Footprint.has_reg_relative b))
              || (not (Staticcheck.Footprint.resolvable b))
              || Staticcheck.Footprint.always_capped b
                 && Staticcheck.Footprint.cover_lines_lb b > cover_expand_cap
            in
            let (capped, cls), res =
              if not init_independent then resolve_fp b ~init
              else
                let key = op.Workload.ar.Isa.Program.id in
                match Hashtbl.find_opt fp_memo key with
                | Some r -> r
                | None ->
                    let r = resolve_fp b ~init in
                    Hashtbl.add fp_memo key r;
                    r
            in
            if capped then
              perf.Simrt.Perfctr.static_cover_capped <-
                perf.Simrt.Perfctr.static_cover_capped + 1;
            (match cls with
            | `Exact ->
                perf.Simrt.Perfctr.static_cover_exact <-
                  perf.Simrt.Perfctr.static_cover_exact + 1
            | `Cover ->
                perf.Simrt.Perfctr.static_cover_cover <-
                  perf.Simrt.Perfctr.static_cover_cover + 1
            | `Unres ->
                perf.Simrt.Perfctr.static_cover_unresolved <-
                  perf.Simrt.Perfctr.static_cover_unresolved + 1);
            match res with
            | None ->
                fp_lines.(id) <- None;
                fp_sets.(id) <- None
            | Some (lines, sets) ->
                fp_lines.(id) <- Some lines;
                fp_sets.(id) <- Some sets);
        (match (fp_lines.(id), fp_sets.(id)) with
        | Some l, Some s -> Some (l, s)
        | _ -> None)
  in
  let caches_hold core lines =
    let l1 = Mem.Hierarchy.l1 t.hierarchy ~core and l2 = Mem.Hierarchy.l2 t.hierarchy ~core in
    Array.exists (fun l -> Mem.Cache.mem l1 l || Mem.Cache.mem l2 l) lines
  in
  (* Phase-window insulation: a peer parked *between* attempts executes
     only core-local work for a provable number of cycles, independent of
     its footprint. Two arms (sound only under [ext_enabled]'s conditions —
     no checker, HTM front-end, requester-wins):

     - [P_next_op], closed loop, pure driver: the pending event runs the
       finish check or [issue_op] (pure driver, own RNG, resets the attempt
       state to [retries_counted = 0], [planned = None]) and schedules a
       [P_start] at least one cycle later. That [P_start] either spins on
       the held write lock — constant during a speculative leader's burst,
       since the leader never takes or releases the fallback lock — or
       begins a speculative attempt ([Txn.start], ERT lookup: core-local
       under requester-wins). The first event that can touch shared state
       (a [P_exec] memory access) is therefore at least
       [1 + max 1 (min xbegin_cost spin_cycles)] cycles out.
     - [P_start] below the retry budget with no planned CL mode: the same
       argument without the leading next-op hop.

     Excluded on purpose: [P_start] past the retry budget (announces and
     may take the write lock, dooming everyone), a planned CL mode
     ([start_cl] leads to [P_lock] whose lock acquisitions doom globally),
     open-loop runs (the driver pops the shared request queue, and a
     leader's in-burst commit pushes completions into it) and impure
     drivers (labyrinth reads the store). *)
  let spin_floor = max 1 (min cfg.Config.xbegin_cost cfg.Config.spin_cycles) in
  let arm_next_op = t.openq = None && t.workload.Workload.pure_driver in
  (* All slack functions return cycles, -1 for "not insulated" — the loop
     below runs per peer per burst, so no options are allocated here. *)
  let phase_window_slack x =
    let c = t.cores.(x) in
    match c.phase with
    | P_next_op when arm_next_op -> 1 + spin_floor
    | P_start when c.retries_counted <= cfg.Config.max_retries && c.planned = None -> spin_floor
    | _ -> -1
  in
  (* Cycles (from peer [x]'s pending event) before [x] can possibly commit
     or enter the fallback path — the two ways a footprint-disjoint peer
     can still interact (post-commit driver work, resp. doom_all and the
     global lock). -1 = not insulated by the footprint argument; requires
     a resolved footprint (exact or expanded cover) on both sides. *)
  let footprint_slack x ~llines ~lsets ~leader =
    let c = t.cores.(x) in
    match c.phase with
    | P_done | P_next_op -> -1
    | P_start when c.retries_counted > cfg.Config.max_retries -> -1
    | P_start | P_lock | P_exec -> (
        match footprint_of x with
        | None -> -1
        | Some (xlines, xsets) ->
            if
              (not (disjoint llines xlines))
              || (not (disjoint lsets xsets))
              || caches_hold leader xlines || caches_hold x llines
            then -1
            else begin
              let b = static_of (current_op c).Workload.ar in
              let mth0 = Staticcheck.Footprint.min_cycles_from_entry b in
              let restart = cfg.Config.abort_penalty + cfg.Config.xbegin_cost + mth0 in
              let commit_slack =
                match c.phase with
                | P_exec -> min (Staticcheck.Footprint.min_cycles_to_halt b ~pc:c.pc) restart
                | _ -> 1 + mth0
              in
              if c.phase = P_exec && c.mode = M_fallback then commit_slack
              else begin
                let needed = cfg.Config.max_retries + 1 - c.retries_counted in
                let fallback_slack =
                  (needed * cfg.Config.abort_penalty) + ((needed - 1) * cfg.Config.xbegin_cost)
                in
                min fallback_slack commit_slack
              end
            end)
  in
  (* Best insulation over both arms; each is independently sound, so the
     larger window applies. *)
  let insulation_slack x ~lfp ~leader =
    let pw = phase_window_slack x in
    let fp =
      match lfp with
      | None -> -1
      | Some (llines, lsets) -> footprint_slack x ~llines ~lsets ~leader
    in
    max pw fp
  in
  (* The leader may execute its next event ahead of a time-tied or earlier
     peer event only if it stays core-local: still mid-speculation, and any
     memory access lands on a line no other core has in its read or write
     set (requester-wins would otherwise doom them out of order). *)
  let ext_step_safe id =
    let c = t.cores.(id) in
    c.phase = P_exec && c.mode = M_spec
    && (match c.pending_abort with
       | Some _ -> true (* abort processing is core-local *)
       | None -> (
           match c.op with
           | None -> false
           | Some op ->
               let body = op.Workload.ar.Isa.Program.body in
               c.pc >= 0
               && c.pc < Array.length body
               && (match body.(c.pc) with
                  | I.Ld { base; off; _ } | I.St { base; off; _ } ->
                      let addr = Regfile.operand c.regs base + off in
                      addr >= 0
                      && Conflict_map.writers_excl t.conflicts ~core:c.id (Mem.Addr.line_of addr)
                         lor Conflict_map.readers_excl t.conflicts ~core:c.id (Mem.Addr.line_of addr)
                         = 0
                  | _ -> true)))
  in
  let ext_enabled =
    t.trace = None && t.check = None
    && cfg.Config.frontend = Config.Htm
    && cfg.Config.policy = Config.Requester_wins
  in
  (* Earliest virtual time at which any peer could interact with the
     leader's burst; the leader may execute events strictly before it. The
     leader's own footprint is needed only by the footprint arm — the
     phase-window arms insulate peers even when the leader's lines are
     unresolvable (pointer-chasing regions). *)
  let extension_bound id =
    let lfp = footprint_of id in
    let bound = ref max_int in
    for x = 0 to n - 1 do
      if x <> id && ev_time.(x) >= 0 && ev_time.(x) < !bound then begin
        let slack = insulation_slack x ~lfp ~leader:id in
        if slack < 0 then bound := ev_time.(x)
        else bound := min !bound (ev_time.(x) + slack)
      end
    done;
    !bound
  in
  while !remaining > 0 do
    (* Merged selection: globally earliest pending event in virtual order. *)
    let leader = ref (-1) in
    for x = 0 to n - 1 do
      if ev_time.(x) >= 0 && (!leader < 0 || before x !leader) then leader := x
    done;
    let id = !leader in
    if ev_time.(id) > max_cycles then livelock_fail t;
    perf.Simrt.Perfctr.pdes_windows <- perf.Simrt.Perfctr.pdes_windows + 1;
    let tied = ref false in
    for x = 0 to n - 1 do
      if x <> id && ev_time.(x) = ev_time.(id) then tied := true
    done;
    if !tied then perf.Simrt.Perfctr.pdes_merge_events <- perf.Simrt.Perfctr.pdes_merge_events + 1;
    let t0 = exec_event id in
    let cap = if p.Pdes.window = max_int then max_int else t0 + p.Pdes.window in
    let last = ref t0 in
    (* Basic burst: strictly earliest == sequential order. *)
    let basic_bound = ref max_int in
    for x = 0 to n - 1 do
      if x <> id && ev_time.(x) >= 0 && ev_time.(x) < !basic_bound then basic_bound := ev_time.(x)
    done;
    let bb = min !basic_bound cap in
    while ev_time.(id) >= 0 && ev_time.(id) < bb && ev_time.(id) <= max_cycles do
      last := exec_event id
    done;
    (* Extended burst: overtake insulated peers. *)
    if
      ext_enabled && !hist_max < hist_cap
      && ev_time.(id) >= 0
      && ev_time.(id) >= !basic_bound
      && ev_time.(id) < cap
      && ev_time.(id) <= max_cycles
      &&
      let c = t.cores.(id) in
      c.phase = P_exec && c.mode = M_spec
    then begin
      let eb = min (extension_bound id) cap in
      if eb <= ev_time.(id) then
        perf.Simrt.Perfctr.pdes_window_stalls <- perf.Simrt.Perfctr.pdes_window_stalls + 1
      else begin
            let stopped = ref false in
            while
              (not !stopped)
              && ev_time.(id) >= 0
              && ev_time.(id) < eb
              && ev_time.(id) <= max_cycles
            do
              if ext_step_safe id then begin
                if not !dirty then begin
                  dirty := true;
                  high_water := 0;
                  hist_max := 0;
                  for x = 0 to n - 1 do
                    hist_len.(x) <- 0;
                    base_seq.(x) <- ev_seq.(x)
                  done
                end;
                last := exec_event id;
                perf.Simrt.Perfctr.pdes_ext_events <- perf.Simrt.Perfctr.pdes_ext_events + 1
              end
              else begin
                stopped := true;
                perf.Simrt.Perfctr.pdes_window_stalls <- perf.Simrt.Perfctr.pdes_window_stalls + 1
              end
            done
          end
    end;
    let lookahead = !last - t0 in
    perf.Simrt.Perfctr.pdes_lookahead_total <- perf.Simrt.Perfctr.pdes_lookahead_total + lookahead;
    if lookahead > perf.Simrt.Perfctr.pdes_lookahead_max then
      perf.Simrt.Perfctr.pdes_lookahead_max <- lookahead;
    (* Sync: once every pending event post-dates the reordered span,
       renumber pendings in virtual push order and drop the chains. *)
    if !dirty && !remaining > 0 then begin
      let minp = ref max_int in
      for x = 0 to n - 1 do
        if ev_time.(x) >= 0 && ev_time.(x) < !minp then minp := ev_time.(x)
      done;
      if !minp > !high_water then begin
        let pending = ref [] in
        for x = n - 1 downto 0 do
          if ev_time.(x) >= 0 then pending := x :: !pending
        done;
        let ordered = List.sort (fun a b -> if push_before a b 1 then -1 else 1) !pending in
        List.iter
          (fun x ->
            ev_seq.(x) <- !next_seq;
            incr next_seq)
          ordered;
        for x = 0 to n - 1 do
          hist_len.(x) <- 0;
          base_seq.(x) <- ev_seq.(x)
        done;
        hist_max := 0;
        dirty := false;
        high_water := 0
      end
    end
  done;
  Stats.set_total_cycles t.stats !last_time;
  t.perf.sims <- t.perf.sims + 1;
  t.perf.allocated_words <- t.perf.allocated_words + int_of_float (gc_words () -. words_before);
  sync_open_perf t;
  sync_check_perf t;
  t.stats

let run ?(max_cycles = 4_000_000_000) ?pdes t =
  match pdes with None -> run_sequential ~max_cycles t | Some p -> run_pdes ~max_cycles t p

let run_workload ?pdes cfg workload = run ?pdes (create cfg workload)
