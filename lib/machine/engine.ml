module Rng = Simrt.Rng
module Event_queue = Simrt.Event_queue
module I = Isa.Instr

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
  mutable mode : Stats.commit_mode; (* of the current attempt *)
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
  check : Check.Collector.t option;
  driver_cap : Check.Capbuf.t; (* driver writes outside ARs, while checking *)
  store_observer : (Mem.Addr.t -> int -> unit) option; (* the checker's, if any *)
  driver_observer : (Mem.Addr.t -> int -> unit) option; (* logs into [driver_cap] *)
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
  parked : int -> bool; (* the core is in [P_next_op] *)
  conflict_seen : (int * int * int, unit) Hashtbl.t;
      (* (aggressor AR id, victim AR id, line) triples already reported to
         the checker; bounds conflict-event volume by the static matrix
         size, not the run length *)
  mutable power_owner : int; (* PowerTM token, -1 when free *)
  mutable now : int;
}

let max_ar_instrs = 200_000

let create ?check (cfg : Config.t) (workload : Workload.t) =
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
          mode = Speculative;
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
  (* Hand over the store after setup and driver construction
     (closure-creation-time writes are part of the initial image), before
     any simulated cycle. *)
  (match check with
  | None -> ()
  | Some col ->
      Check.Collector.set_ars col workload.ars;
      Check.Collector.set_initial col store);
  let driver_cap = Check.Capbuf.create () in
  (* The checker may observe the store itself; the driver observer logs
     driver writes and passes every write on to it. *)
  let store_observer = Mem.Store.observer store in
  {
    cfg;
    check;
    driver_cap;
    store_observer;
    driver_observer =
      Some
        (fun addr value ->
          Check.Capbuf.note_store driver_cap ~addr ~value;
          match store_observer with None -> () | Some f -> f addr value);
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
    parked = (fun id -> cores.(id).phase = P_next_op);
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

(* Buffered modes (plain speculation, S-CL) are the speculative ones: their
   writes stay in the transaction until commit and a conflict can abort
   them. NS-CL and fallback write memory directly. *)
let buffered c = Check.Witness.mode_buffered c.mode

let is_speculating c = c.phase = P_exec && buffered c && not c.failed_mode

let release_power t c = if t.power_owner = c.id then t.power_owner <- -1

let try_acquire_power t c =
  if
    t.cfg.policy = Config.Power_tm && c.attempt >= 1
    && (t.power_owner = -1 || t.power_owner = c.id)
  then t.power_owner <- c.id

(* Is core [v]'s transaction protected against requester-wins? Paper §5.2:
   the power transaction, and with CLEAR over PowerTM every S-CL, nack
   conflicting requests instead of aborting. *)
let victim_protected t (v : core) =
  t.power_owner = v.id || (v.mode = Scl && t.cfg.clear_enabled && t.cfg.policy = Config.Power_tm)

let doom (v : core) cause line =
  if is_speculating v && Option.is_none v.pending_abort then v.pending_abort <- Some (cause, line)

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

(* Clear the current region's ERT bits: [~convertible:false] rules out
   cacheline locking, [~immutable:false] marks the footprint data-dependent
   (so a locked retry must be S-CL). The one ERT lookup of the engine. *)
let ert_mark c ~convertible ~immutable =
  match Clear.Ert.lookup c.ert ~pc:(current_op c).Workload.ar.Isa.Program.id with
  | Some e ->
      if not convertible then Clear.Ert.mark_not_convertible e;
      if not immutable then Clear.Ert.mark_not_immutable e
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Witness capture (execution oracle)                                  *)

let capturing t = match t.check with None -> false | Some _ -> true

let cap_read t c line = if capturing t then Check.Capbuf.note_read c.cap ~line ~time:t.now

let cap_write t c line = if capturing t then Check.Capbuf.note_write c.cap ~line ~time:t.now

let cap_store t c addr value = if capturing t then Check.Capbuf.note_store c.cap ~addr ~value

(* The attempt lifecycle's one emission path, feeding the checker or the
   trace. Callers guard with [capturing] so the event value is not even
   built when nothing consumes it. *)
let lock_ev t ev =
  match t.check with None -> () | Some col -> Check.Collector.add_lock_event col ev

(* Fault injection: accesses the conflict-detection hardware is blind to
   (testing knobs — see Config.fault_blind_line / fault_numa_blind). The
   numa-blind fault drops the conflict probe on every access whose
   cross-socket adder is positive, so remote-socket transactions race
   undetected. *)
let blind t (c : core) line =
  (match t.cfg.fault_blind_line with Some l -> l = line | None -> false)
  || (t.cfg.fault_numa_blind && Mem.Hierarchy.numa_adder t.hierarchy ~core:c.id line > 0)

(* ------------------------------------------------------------------ *)
(* Conflict detection                                                  *)

exception Abort_now of Abort.cause

(* The access reached a remotely locked line and the requester is not itself
   holding cacheline locks: the directory retries the request (paper Figure
   6), so the instruction stalls and re-issues. *)
exception Stall_now

(* Other cores holding [line] in their speculative sets in a way an access
   conflicts with: writers for a read, readers and writers for a write. *)
let holders t c line ~write =
  let w = Conflict_map.writers_excl t.conflicts ~core:c.id line in
  if write then w lor Conflict_map.readers_excl t.conflicts ~core:c.id line else w

(* Every conflict ends here: report it to the checker, then doom the holder
   with [cause] — unless [nack] and the holder is protected, in which case
   the request is refused and the requester aborts instead. *)
let resolve t c line mask cause ~nack =
  Conflict_map.iter_cores mask (fun w ->
      let v = t.cores.(w) in
      note_conflict t c v line;
      if nack && victim_protected t v then raise (Abort_now Abort.Nacked) else doom v cause (Some line))

(* An access's conflict probe, counted in the perf record. *)
let probe t c line ~write cause ~nack =
  let mask = holders t c line ~write in
  t.perf.conflict_checks <- t.perf.conflict_checks + 1;
  if mask <> 0 then begin
    t.perf.conflict_hits <- t.perf.conflict_hits + 1;
    resolve t c line mask cause ~nack
  end

(* In S-CL mode the core holds cacheline locks, so a request that reaches a
   remotely locked line must be nacked (abort) to break lock cycles (paper
   Figure 5). A plain speculative core holds no locks and simply retries the
   request until the holder's AR completes. *)
let blocked_by_remote_lock t c line =
  let holder = Mem.Hierarchy.locked_by t.hierarchy line in
  if holder >= 0 && holder <> c.id then
    if c.mode = Scl then begin
      note_conflict t c t.cores.(holder) line;
      raise (Abort_now Abort.Nacked)
    end
    else raise Stall_now

(* Is this access tracked by conflict detection? Plain speculation always;
   S-CL off the lines it holds locked; fallback never. NS-CL never either:
   every access must hit a line it holds locked, and one that does not means
   the immutability assessment was wrong, so the attempt aborts and the
   region retries speculatively. *)
let tracked t c line =
  match c.mode with
  | Speculative -> true
  | Scl -> Mem.Hierarchy.locked_by t.hierarchy line <> c.id
  | Nscl ->
      if Mem.Hierarchy.locked_by t.hierarchy line <> c.id then raise (Abort_now Abort.Scl_deviation);
      false
  | Fallback -> false

(* ------------------------------------------------------------------ *)
(* Attempt lifecycle                                                   *)

let fig1_close t c =
  (* End of attempt 1: compare footprints for the Figure 1 metric. *)
  match c.footprint0 with
  | Some fp0 when c.attempt = 1 ->
      let fp1 = attempt_footprint c in
      let stable = fp0 = fp1 && Array.length fp0 <= t.cfg.alt_capacity in
      Stats.note_first_abort t.stats ~footprint_stable:stable;
      c.footprint0 <- None
  | Some _ | None -> ()

(* Every attempt begins here. Buffered modes start a transaction; the
   cacheline-locked modes acquire their lines before running the body. *)
let open_attempt t c mode =
  c.mode <- mode;
  if capturing t then
    lock_ev t
      (Check.Lock_safety.Attempt_begin
         { time = t.now; core = c.id; ar = (current_op c).Workload.ar; mode; attempt = c.attempt });
  if buffered c then Txn.start c.txn;
  Regfile.load_initial c.regs (current_op c).Workload.init_regs;
  c.pc <- 0;
  c.attempt_instrs <- 0;
  c.indirection_seen <- false;
  c.alt_overflow <- false;
  c.sq_overflow <- false;
  c.failed_mode <- false;
  Simrt.Lineset.clear c.attempt_lines;
  Check.Capbuf.reset c.cap;
  c.phase <- (match mode with Scl | Nscl -> P_lock | Speculative | Fallback -> P_exec)

(* Every attempt ends here, committed or aborted: withdraw from conflict
   detection, release the cacheline locks and the fallback-lock hold (the
   shared hold of a CL-mode execution or the exclusive hold of a fallback
   execution), tell the checker the [outcome], drop the power token and the
   transaction. *)
let end_attempt t c outcome =
  Txn.iter_lines c.txn (fun line -> Conflict_map.remove_line t.conflicts ~core:c.id line);
  (match c.mode with
  | Scl | Nscl ->
      if capturing t then
        List.iter
          (fun line -> lock_ev t (Check.Lock_safety.Unlock { time = t.now; core = c.id; line }))
          (Mem.Hierarchy.locked_lines t.hierarchy ~core:c.id);
      ignore (Mem.Hierarchy.unlock_all t.hierarchy ~core:c.id : int)
  | Speculative | Fallback -> ());
  c.lock_queue <- [];
  Fallback_lock.release (op_lock t c) ~core:c.id;
  if capturing t then lock_ev t (Check.Lock_safety.Attempt_end { time = t.now; core = c.id; outcome });
  release_power t c;
  Txn.reset c.txn

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
  if c.mode = Scl && t.cfg.crt_decay then
    List.iter
      (fun (e : Clear.Alt.entry) ->
        if e.needs_locking && not e.written then Clear.Crt.remove c.crt e.line)
      (Clear.Alt.entries c.alt);
  let drained = if buffered c then Txn.drain c.txn t.store else 0 in
  (match t.check with
  | None -> ()
  | Some col ->
      Check.Collector.add_commit col c.cap ~time:t.now ~core:c.id ~ar:op.Workload.ar
        ~init_regs:op.Workload.init_regs ~mode:c.mode ~retries:c.retries_counted);
  end_attempt t c (Check.Lock_safety.Committed { mode = c.mode; retries = c.retries_counted });
  fig1_close t c;
  Clear.Ert.note_commit c.ert ~pc:op.Workload.ar.Isa.Program.id;
  Stats.note_commit ~ar:op.Workload.ar.Isa.Program.id t.stats ~mode:c.mode ~retries:c.retries_counted;
  t.perf.commits <- t.perf.commits + 1;
  (match t.openq with
  | Some oq when c.req >= 0 ->
      Openq.complete oq ~req:c.req ~now:t.now;
      c.req <- -1
  | Some _ | None -> ());
  finish_op c;
  t.cfg.xend_cost + (drained / 4)

let do_abort t c cause =
  Stats.note_abort t.stats cause;
  t.perf.aborts <- t.perf.aborts + 1;
  Stats.note_wasted_instrs t.stats c.attempt_instrs;
  (* A conflicting read feeds the CRT so the next S-CL locks it too. *)
  (match c.pending_abort with
  | Some (_, Some line) when t.cfg.use_crt && Txn.in_read_set c.txn line && not (Txn.in_write_set c.txn line) ->
      Clear.Crt.insert c.crt line
  | Some _ | None -> ());
  c.pending_abort <- None;
  end_attempt t c (Check.Lock_safety.Aborted cause);
  if c.attempt = 0 then begin
    let fp = attempt_footprint c in
    c.footprint0 <- (if Array.length fp = 0 then None else Some fp)
  end
  else fig1_close t c;
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
        if subscribed then doom v Abort.Other_fallback None
      end)
    t.cores

(* ------------------------------------------------------------------ *)
(* Discovery bookkeeping                                               *)

let record_in_alt c line ~written =
  if c.discovery && not c.alt_overflow then
    match Clear.Alt.record c.alt line ~written with
    | `Ok -> ()
    | `Overflow ->
        c.alt_overflow <- true;
        ert_mark c ~convertible:false ~immutable:true

let end_of_discovery_decision t c =
  (* Failed-mode discovery reached the end of the AR: hierarchical
     assessment (paper Figure 2), then the abort proceeds. *)
  let fits = (not c.alt_overflow) && not c.sq_overflow in
  let lockable =
    fits && Mem.Cache.would_fit (Mem.Hierarchy.l1 t.hierarchy ~core:c.id) (Clear.Alt.lines c.alt)
  in
  let immutable = not c.indirection_seen in
  ert_mark c ~convertible:lockable ~immutable;
  let assessment = { Clear.Decision.fits_window = fits; lockable; immutable } in
  let decision = Clear.Decision.decide assessment in
  (match t.check with
  | Some col ->
      Check.Collector.add_decision col ~time:t.now ~core:c.id ~ar:(current_op c).Workload.ar ~decision
  | None -> ());
  c.planned <-
    (match decision with
    | Clear.Decision.Speculative_retry -> None
    | (Clear.Decision.Ns_cl | Clear.Decision.S_cl) as m -> Some m)

(* ------------------------------------------------------------------ *)
(* Memory-instruction semantics                                        *)

(* Charge latency and check capacity: evicting a line of our own speculative
   set aborts the transaction. *)
let check_evictions c outcome =
  let victim = outcome.Mem.Hierarchy.l1_victim in
  if victim >= 0 && Txn.in_either_set c.txn victim then raise (Abort_now Abort.Capacity)

(* The two accesses of every mode, which differ in two ways: whether the
   access is [tracked] by conflict detection, and whether the mode is
   [buffered]. A tracked access is probed for conflicts unless the attempt
   is in failed-mode discovery or the line is blind, joins the transaction's
   sets and the discovery footprint; a buffered one goes through the
   transaction's store buffer. Both return the latency to charge; a load
   also writes its destination register. The order of the steps is part of
   the simulated result, which the engine goldens pin: a store records into
   the ALT before it can stall or be nacked, a load only after its hierarchy
   access, and a failed-mode store never reaches the hierarchy. *)
let read t c ~dst addr =
  let line = Mem.Addr.line_of addr in
  touch_line t c line;
  let tracked = tracked t c line in
  if tracked then blocked_by_remote_lock t c line;
  let armed = tracked && (not c.failed_mode) && not (blind t c line) in
  if armed then probe t c line ~write:false Abort.Memory_conflict ~nack:true;
  let outcome = Mem.Hierarchy.read_line t.hierarchy ~core:c.id line in
  if tracked then begin
    check_evictions c outcome;
    Txn.read_line c.txn line;
    if armed then Conflict_map.add_reader t.conflicts ~core:c.id line;
    record_in_alt c line ~written:false
  end;
  cap_read t c line;
  let value =
    if buffered c then begin
      t.perf.store_forward_scans <- t.perf.store_forward_scans + 1;
      Txn.load c.txn t.store addr
    end
    else Mem.Store.read t.store addr
  in
  Regfile.define_load c.regs ~dst value;
  outcome.Mem.Hierarchy.latency

let write t c addr value =
  let line = Mem.Addr.line_of addr in
  touch_line t c line;
  let tracked = tracked t c line in
  if tracked then record_in_alt c line ~written:true;
  let armed = tracked && (not c.failed_mode) && not (blind t c line) in
  let latency =
    if c.failed_mode then begin
      (* Failed mode: stores stay in the SQ, no coherence traffic. *)
      if Txn.store_count c.txn >= t.cfg.sq_entries then begin
        c.sq_overflow <- true;
        Clear.Ert.note_sq_full c.ert ~pc:(current_op c).Workload.ar.Isa.Program.id;
        raise (Abort_now c.failed_cause)
      end;
      (* SQ insertion only. *)
      1
    end
    else begin
      if tracked then blocked_by_remote_lock t c line;
      if armed then probe t c line ~write:true Abort.Memory_conflict ~nack:true
      else if c.mode = Fallback then
        (* Unprotected fallback stores clash with any straggling speculative
           reader/writer (they subscribed to the lock but may not have
           processed the abort yet). *)
        probe t c line ~write:true Abort.Other_fallback ~nack:false;
      let outcome = Mem.Hierarchy.write_line t.hierarchy ~core:c.id line in
      if tracked then check_evictions c outcome;
      outcome.Mem.Hierarchy.latency
    end
  in
  if buffered c then begin
    Txn.buffer_store c.txn addr value;
    Txn.write_line c.txn line
  end
  else Mem.Store.write t.store addr value;
  if armed then Conflict_map.add_writer t.conflicts ~core:c.id line;
  cap_write t c line;
  cap_store t c addr value;
  latency

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
      let latency = read t c ~dst (Regfile.operand c.regs baseop + off) in
      c.pc <- c.pc + 1;
      base + latency
  | I.St { base = baseop; off; src; region = _ } ->
      note_indirection c baseop;
      let latency = write t c (Regfile.operand c.regs baseop + off) (Regfile.operand c.regs src) in
      c.pc <- c.pc + 1;
      base + latency

(* ------------------------------------------------------------------ *)
(* Phase steps: each returns the latency until this core's next event.  *)

let start_speculative t c =
  open_attempt t c Speculative;
  try_acquire_power t c;
  c.discovery <-
    t.cfg.clear_enabled
    &&
    (let e = Clear.Ert.lookup_or_insert c.ert ~pc:(current_op c).Workload.ar.Isa.Program.id in
     Clear.Ert.discovery_enabled e);
  if c.discovery then Clear.Alt.reset c.alt;
  c.explicit_fb_counted <- false;
  t.cfg.xbegin_cost

let start_cl t c (mode : Clear.Decision.mode) =
  (* Read-lock the fallback lock, then queue the cacheline locks. *)
  if Fallback_lock.try_read_lock (op_lock t c) ~core:c.id then begin
    let lock_all = mode = Clear.Decision.Ns_cl in
    Clear.Alt.prepare_locking c.alt ~lock_all ~extra:(fun line -> t.cfg.use_crt && Clear.Crt.mem c.crt line);
    c.lock_queue <- Clear.Alt.to_lock c.alt;
    open_attempt t c (if lock_all then Nscl else Scl);
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
      c.planned <- None;
      open_attempt t c Fallback;
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
      c.phase <- P_exec;
      1
  | entry :: rest -> (
      match Mem.Hierarchy.lock_line t.hierarchy ~core:c.id entry.Clear.Alt.line with
      | `Acquired outcome ->
          (* Locking implies exclusivity: any speculative transaction holding
             the line in its sets loses it (the lock's invalidation is a
             conflicting request it cannot win). *)
          let line = entry.Clear.Alt.line in
          resolve t c line (holders t c line ~write:true) Abort.Memory_conflict ~nack:false;
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

(* A doomed or aborting attempt: a memory conflict during CLEAR discovery
   continues in failed mode to the region's end (when enabled and the
   footprint still fits the ALT); anything else aborts now. Our accesses are
   non-aborting in failed mode: withdraw from conflict detection so we
   damage no other transaction. *)
let abort_or_discover t c cause =
  if
    c.mode = Speculative && c.discovery && (not c.failed_mode) && cause = Abort.Memory_conflict
    && t.cfg.failed_mode_discovery && not c.alt_overflow
  then begin
    if capturing t then lock_ev t (Check.Lock_safety.Failed_mode { time = t.now; core = c.id });
    c.failed_mode <- true;
    c.failed_cause <- cause;
    Txn.iter_lines c.txn (fun line -> Conflict_map.remove_line t.conflicts ~core:c.id line);
    c.pending_abort <- None;
    1
  end
  else begin
    (* Non-memory aborts mark the region non-discoverable. *)
    (match cause with
    | Abort.Capacity | Abort.Other -> ert_mark c ~convertible:false ~immutable:true
    | Abort.Scl_deviation ->
        ert_mark c ~convertible:false ~immutable:false;
        c.planned <- None
    | Abort.Memory_conflict | Abort.Nacked | Abort.Explicit_fallback | Abort.Other_fallback -> ());
    do_abort t c cause
  end

let step_exec t c =
  (* Doom processing first. *)
  match c.pending_abort with
  | Some (cause, _) -> abort_or_discover t c cause
  | None -> (
      match exec_instr t c with
      | latency when latency <> halted ->
          (* In-core speculation (SLE) is bounded by the ROB and SQ: a region
             that outgrows the window cannot complete speculatively (paper
             §4.1, assessment 1). NS-CL and fallback run non-speculatively
             and retire freely. *)
          if
            t.cfg.frontend = Config.Sle && buffered c
            && (c.attempt_instrs > t.cfg.rob_entries || Txn.store_count c.txn > t.cfg.sq_entries)
          then abort_or_discover t c Abort.Capacity
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
      | exception Abort_now cause -> abort_or_discover t c cause)

(* Pull the next operation from the driver and charge its think time. The
   driver call is shared by both frontends; only the decision of *whether*
   there is a next operation differs. *)
let issue_op t c =
  let op =
    match t.check with
    | None -> c.driver ()
    | Some col ->
        (* Drivers may write the store outside any AR (thread-private
           scratch, e.g. labyrinth's path buffers). The observer built at
           [create] logs those writes into [driver_cap] while the driver
           runs, so the replay oracle can apply them at the right point. *)
        Mem.Store.set_observer t.store t.driver_observer;
        let op = c.driver () in
        Mem.Store.set_observer t.store t.store_observer;
        if Check.Capbuf.n_stores t.driver_cap > 0 then begin
          Check.Collector.add_driver_writes col ~time:t.now ~core:c.id
            ~stores:(Check.Capbuf.stores t.driver_cap);
          Check.Capbuf.reset t.driver_cap
        end;
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
   open-queue totals above. *)
let sync_check_perf t =
  match t.check with
  | None -> ()
  | Some col ->
      let live_hw, retired = Check.Collector.stream_stats col in
      t.perf.check_live_lines <- max t.perf.check_live_lines live_hw;
      t.perf.check_retired <- t.perf.check_retired + retired

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
             (Check.Witness.mode_name c.mode)
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

let run ?(max_cycles = 4_000_000_000) t =
  let words_before = gc_words () in
  let remaining = ref (Array.length t.cores) in
  let last_time = ref 0 in
  let continue = ref true in
  while !continue && !remaining > 0 do
    if Event_queue.is_empty t.queue then
      failwith "Engine.run: event queue drained with unfinished threads";
    (* The stepped core's event stays at the front while it steps; the
       queue pops it only when the core finishes. *)
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
      let at = time + Int.max 1 latency in
      (* A core that stays in [P_next_op] found the backlog empty and parked
         until the next arrival. Every [P_next_op] core queued right behind
         it at this time would do the same, so they move as one run and
         count as the events they are (DESIGN.md §7b). *)
      if picking && c.phase = P_next_op then
        t.perf.events_popped <- t.perf.events_popped + Event_queue.requeue_run t.queue ~time:at t.parked - 1
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

let release t =
  Event_queue.release t.queue;
  Mem.Hierarchy.release t.hierarchy;
  Mem.Store.release t.store;
  Conflict_map.release t.conflicts

let run_workload cfg workload =
  let t = create cfg workload in
  let stats = run t in
  release t;
  stats
