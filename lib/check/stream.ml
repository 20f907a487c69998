(* Incremental, bounded-memory face of the execution oracle (DESIGN.md §14).

   {!Serial.check}, {!Lock_safety.check} and a replay from the initial image
   consume a complete per-run history: every witness, lock event and
   decision, retained until the run ends. This module checks the engine's
   emission stream online, one emission at a time, and retires state as soon
   as the global committed frontier proves it can no longer participate in a
   violation — so a checked run carries O(live entries) ints of checker
   state instead of O(history) witnesses.

   Retirement invariant. Let F be the minimum attempt-begin time over all
   in-flight attempts (or the latest stream time when every core is idle).
   The engine feeds emissions in non-decreasing time order (its event loop
   is monotone in [t.now]), and every future witness performs all of
   its reads and acquires visibility inside its own attempt interval — so
   every future read time and every future visibility is >= F. Hence:

   - a recorded reader with first-read time tr <= F can never close a Wr
     cycle (that needs tr > vis' for some future visibility vis' >= F);
   - a recorded writer with visibility vis <= F can never close an Rw cycle
     (needs a future read tr < vis <= F) nor a Ww cycle (needs a future
     visibility vis' < vis <= F).

   Dropping exactly that state changes no check outcome, so the first
   violation reported here is identical — field for field — to the post hoc
   {!Serial.check} over the full history. Dropped entries are folded into
   global high-water counters, never lost silently. *)

type stats = {
  live_lines : int;
  peak_live_lines : int;
  live_entries : int;
  peak_live_entries : int;
  retired : int;
  commits : int;
}

type results = {
  commits : int;
  serial : (unit, Serial.violation) result;
  replay : (unit, Replay.divergence) result;
  locks : (unit, Lock_safety.violation) result;
  static_ : (unit, Staticcheck.Gate.violation) result option;
}

(* Serializability state is ints only, so no witness outlives the callback
   that lent it (DESIGN.md §14):

   - the live lines sit in an open-addressing table of int slots, [stride]
     ints each: the line (-1 marks an empty slot), the last writer's commit
     ordinal (-1 none) and visibility, and a summary of the live readers —
     the head of their chain (-1 none), their count and their latest
     first-read time. The table is sized to the live set, not the address
     space, so it stays cache-resident however widely a run scatters its
     lines; the sweep rebuilds it into a spare of the same size, which is
     how dropped lines leave without tombstones;
   - live readers are nodes in an arena of parallel int arrays (commit
     ordinal, first-read time, next node), newest first per line. A writer
     drops its line's chain by resetting the summary, and consults the
     chain only when the latest read postdates its visibility. The sweep
     copies the surviving nodes into a spare arena and swaps, so retiring a
     line's readers costs nothing per reader;
   - the header a violation report prints (seq, time, core, AR, mode,
     retries, footprint sizes) is kept per commit ordinal in a ring that
     spans only the ordinals live entries still reference.

   Commit ordinals count the commits this checker saw; headers carry the
   witness's own [seq]. *)

(* Slot fields *)
let f_writer = 1

let f_vis = 2

let f_head = 3

let f_readers = 4

let f_max_tr = 5

let stride = 6

(* Both tables start small and double as a run needs: the live set of a
   short simulation fits, and a long one reaches its size in a few
   doublings. *)
let initial_slots = 64

let initial_readers = 64

type t = {
  sweep_every : int;
  static_gate : Staticcheck.Gate.t option;
  mutable model : Staticcheck.Gate.model option;
      (* [static_gate]'s model over no regions until [set_ars] *)
  mutable tab : int array;  (* slots * stride *)
  mutable spare : int array;  (* same size, rebuilt into by [sweep] *)
  mutable n_live : int;  (* occupied slots *)
  (* reader arena, first [r_top] nodes in use, and the spare the sweep
     compacts into *)
  mutable r_ord : int array;
  mutable r_tr : int array;
  mutable r_next : int array;
  mutable r_top : int;
  mutable s_ord : int array;
  mutable s_tr : int array;
  mutable s_next : int array;
  (* header ring, slot = ordinal land (capacity - 1) *)
  mutable hdr : int array;  (* hdr_ints per slot *)
  mutable hdr_ar : Isa.Program.ar array;
  mutable h_lo : int;  (* oldest ordinal a live entry may reference *)
  scratch : Capbuf.t;  (* for [add_witness] *)
  gate_regs : int array;  (* a commit's initial register file, for the gate *)
  locks : Lock_safety.t;
  inflight : int array;  (* attempt-begin time per core; -1 = idle *)
  mutable replay_cur : Replay.cursor option;
  mutable last_time : int;
  mutable n_commits : int;
  mutable since_sweep : int;
  (* Per-oracle first-error latches: after an oracle fails it stops being
     fed (its post hoc counterpart stops at the first error too); the other
     oracles keep running, so each result matches the post hoc oracle's
     independent result. The static gate latches witness, decision and
     conflict violations separately so that it reports the violation a gate
     checking all witnesses, then all decisions, then all conflicts would. *)
  mutable serial_err : Serial.violation option;
  mutable replay_err : Replay.divergence option;
  mutable lock_err : Lock_safety.violation option;
  mutable gate_commit_err : Staticcheck.Gate.violation option;
  mutable gate_decision_err : Staticcheck.Gate.violation option;
  mutable gate_conflict_err : Staticcheck.Gate.violation option;
  mutable live_entries : int;
  mutable peak_live_lines : int;
  mutable peak_live_entries : int;
  mutable retired : int;
}

let create ?static_gate ?(sweep_every = 512) ~cores () =
  if sweep_every < 1 then invalid_arg "Stream.create: sweep_every must be >= 1";
  {
    sweep_every;
    static_gate;
    model = Option.map (fun g -> Staticcheck.Gate.model g []) static_gate;
    tab = Array.make (initial_slots * stride) (-1);
    spare = Array.make (initial_slots * stride) (-1);
    n_live = 0;
    r_ord = Array.make initial_readers 0;
    r_tr = Array.make initial_readers 0;
    r_next = Array.make initial_readers 0;
    r_top = 0;
    s_ord = Array.make initial_readers 0;
    s_tr = Array.make initial_readers 0;
    s_next = Array.make initial_readers 0;
    hdr = [||];
    hdr_ar = [||];
    h_lo = 0;
    scratch = Capbuf.create ();
    gate_regs = Array.make Isa.Instr.num_regs 0;
    locks = Lock_safety.create ~cores;
    inflight = Array.make cores (-1);
    replay_cur = None;
    last_time = 0;
    n_commits = 0;
    since_sweep = 0;
    serial_err = None;
    replay_err = None;
    lock_err = None;
    gate_commit_err = None;
    gate_decision_err = None;
    gate_conflict_err = None;
    live_entries = 0;
    peak_live_lines = 0;
    peak_live_entries = 0;
    retired = 0;
  }

let stats t =
  {
    live_lines = t.n_live;
    peak_live_lines = t.peak_live_lines;
    live_entries = t.live_entries;
    peak_live_entries = t.peak_live_entries;
    retired = t.retired;
    commits = t.n_commits;
  }

let set_initial t snap = t.replay_cur <- Some (Replay.start ~initial:snap)

let attach t store = t.replay_cur <- Some (Replay.attach store)

let note_time t time = if time > t.last_time then t.last_time <- time

let grow a n fill = Array.append a (Array.make (max n 1) fill)

(* ------------------------------------------------------------------ *)
(* Flat state *)

let slots t = Array.length t.tab / stride

(* Multiplicative hashing: bits 32 and up of the product pick the slot. *)
let home line n = ((line * 0x2545F4914F6CDD1D) lsr 32) land (n - 1)

let rec probe tab mask line i =
  let b = i * stride in
  let k = tab.(b) in
  if k = line || k < 0 then b else probe tab mask line ((i + 1) land mask)

let blit_slot src sb dst =
  let n = Array.length dst / stride in
  let line = src.(sb) in
  let b = probe dst (n - 1) line (home line n) in
  Array.blit src sb dst b stride

let resize t n =
  let tab = Array.make (n * stride) (-1) in
  let src = t.tab in
  let b = ref 0 in
  while !b < Array.length src do
    if src.(!b) >= 0 then blit_slot src !b tab;
    b := !b + stride
  done;
  t.tab <- tab;
  t.spare <- Array.make (n * stride) (-1)

(* The line's slot, created empty when the line holds no state yet (and
   then counted live until the next sweep, even if a violation stops the
   commit before an entry lands). *)
let rec touch t line =
  let n = slots t in
  let b = probe t.tab (n - 1) line (home line n) in
  if t.tab.(b) >= 0 then b
  else if 2 * (t.n_live + 1) > n then begin
    resize t (2 * n);
    touch t line
  end
  else begin
    let tab = t.tab in
    tab.(b) <- line;
    tab.(b + f_writer) <- -1;
    tab.(b + f_vis) <- 0;
    tab.(b + f_head) <- -1;
    tab.(b + f_readers) <- 0;
    tab.(b + f_max_tr) <- min_int;
    t.n_live <- t.n_live + 1;
    b
  end

let new_reader t ~ord ~tr ~next =
  let n = t.r_top in
  if n = Array.length t.r_ord then begin
    t.r_ord <- grow t.r_ord n 0;
    t.r_tr <- grow t.r_tr n 0;
    t.r_next <- grow t.r_next n 0
  end;
  t.r_ord.(n) <- ord;
  t.r_tr.(n) <- tr;
  t.r_next.(n) <- next;
  t.r_top <- n + 1;
  n

let mode_code = function
  | Witness.Speculative -> 0
  | Witness.Scl -> 1
  | Witness.Nscl -> 2
  | Witness.Fallback -> 3

let mode_of_code = function
  | 0 -> Witness.Speculative
  | 1 -> Witness.Scl
  | 2 -> Witness.Nscl
  | _ -> Witness.Fallback

(* Header ring slots: seq, time, core, mode, retries, reads, writes (padded
   to eight ints), plus the AR in [hdr_ar] — one slot per commit ordinal,
   interleaved so a commit writes one cache line. *)
let hdr_ints = 8

let ring_slots t = Array.length t.hdr_ar

(* Double the ring, keeping the ordinals [h_lo, n_commits) it spans; [ar]
   fills the new AR slots (an array needs some value). *)
let ring_grow t ar =
  let cap = ring_slots t in
  let cap' = max 1024 (2 * cap) in
  let hdr = Array.make (cap' * hdr_ints) 0 and hdr_ar = Array.make cap' ar in
  for ord = t.h_lo to t.n_commits - 1 do
    let i = ord land (cap - 1) and i' = ord land (cap' - 1) in
    Array.blit t.hdr (i * hdr_ints) hdr (i' * hdr_ints) hdr_ints;
    hdr_ar.(i') <- t.hdr_ar.(i)
  done;
  t.hdr <- hdr;
  t.hdr_ar <- hdr_ar

let record_header t buf =
  if t.n_commits - t.h_lo >= ring_slots t then ring_grow t (Capbuf.ar buf);
  let i = t.n_commits land (ring_slots t - 1) in
  let b = i * hdr_ints and h = t.hdr in
  h.(b) <- Capbuf.seq buf;
  h.(b + 1) <- Capbuf.time buf;
  h.(b + 2) <- Capbuf.core buf;
  h.(b + 3) <- mode_code (Capbuf.mode buf);
  h.(b + 4) <- Capbuf.retries buf;
  h.(b + 5) <- Capbuf.n_reads buf;
  h.(b + 6) <- Capbuf.n_writes buf;
  let ar = Capbuf.ar buf in
  if t.hdr_ar.(i) != ar then t.hdr_ar.(i) <- ar

let header t ord =
  let i = ord land (ring_slots t - 1) in
  let b = i * hdr_ints and h = t.hdr in
  {
    Witness.seq = h.(b);
    time = h.(b + 1);
    core = h.(b + 2);
    ar = t.hdr_ar.(i);
    mode = mode_of_code h.(b + 3);
    retries = h.(b + 4);
    n_reads = h.(b + 5);
    n_writes = h.(b + 6);
  }

let seq_of t ord = t.hdr.((ord land (ring_slots t - 1)) * hdr_ints)

(* ------------------------------------------------------------------ *)
(* Retirement *)

let frontier t =
  let f = ref max_int in
  for c = 0 to Array.length t.inflight - 1 do
    let b = t.inflight.(c) in
    if b >= 0 && b < !f then f := b
  done;
  if !f = max_int then t.last_time else !f

(* One pass over the live lines: drop readers with first-read time <= F
   and a last writer with visibility <= F, move the lines that still hold
   state into the (empty) spare table and empty their old slots, so the
   swept table becomes the next spare; likewise compact the surviving
   readers into the spare arena; and move the header ring's low end up to
   the oldest ordinal still referenced. *)
let sweep t =
  let f = frontier t in
  let lo = ref t.n_commits in
  let tab = t.tab and spare = t.spare in
  if Array.length t.s_ord < t.r_top then begin
    t.s_ord <- Array.make (Array.length t.r_ord) 0;
    t.s_tr <- Array.make (Array.length t.r_ord) 0;
    t.s_next <- Array.make (Array.length t.r_ord) 0
  end;
  let kept = ref 0 in
  t.n_live <- 0;
  let b = ref 0 in
  while !b < Array.length tab do
    let line = tab.(!b) in
    if line >= 0 then begin
      let readers = tab.(!b + f_readers) in
      if readers > 0 then begin
        (* Copy the readers that read after F into the spare arena, newest
           first as before; none survive when the latest read is <= F. *)
        let before = !kept and max_tr = ref min_int in
        let head = ref (-1) and prev = ref (-1) in
        let n = ref (if tab.(!b + f_max_tr) <= f then -1 else tab.(!b + f_head)) in
        while !n >= 0 do
          let tr = t.r_tr.(!n) in
          if tr > f then begin
            let c = !kept in
            t.s_ord.(c) <- t.r_ord.(!n);
            t.s_tr.(c) <- tr;
            t.s_next.(c) <- -1;
            if !prev < 0 then head := c else t.s_next.(!prev) <- c;
            prev := c;
            incr kept;
            if tr > !max_tr then max_tr := tr;
            if t.r_ord.(!n) < !lo then lo := t.r_ord.(!n)
          end;
          n := t.r_next.(!n)
        done;
        let dropped = readers - (!kept - before) in
        t.retired <- t.retired + dropped;
        t.live_entries <- t.live_entries - dropped;
        tab.(!b + f_head) <- !head;
        tab.(!b + f_readers) <- !kept - before;
        tab.(!b + f_max_tr) <- !max_tr
      end;
      let writer = tab.(!b + f_writer) in
      if writer >= 0 then
        if tab.(!b + f_vis) <= f then begin
          tab.(!b + f_writer) <- -1;
          t.retired <- t.retired + 1;
          t.live_entries <- t.live_entries - 1
        end
        else if writer < !lo then lo := writer;
      if tab.(!b + f_writer) >= 0 || tab.(!b + f_head) >= 0 then begin
        blit_slot tab !b spare;
        t.n_live <- t.n_live + 1
      end;
      tab.(!b) <- -1
    end;
    b := !b + stride
  done;
  t.tab <- spare;
  t.spare <- tab;
  let ord = t.r_ord and tr = t.r_tr and next = t.r_next in
  t.r_ord <- t.s_ord;
  t.r_tr <- t.s_tr;
  t.r_next <- t.s_next;
  t.s_ord <- ord;
  t.s_tr <- tr;
  t.s_next <- next;
  t.r_top <- !kept;
  t.h_lo <- !lo

(* ------------------------------------------------------------------ *)
(* Serializability: Serial.add over the flat state. The check logic is
   identical statement for statement — same iteration order, same newest-
   first reader scan — so the first violation is the post hoc one. *)

exception Found of Serial.violation

let violation t buf ~earlier ~line ~kind ~detail =
  Found { Serial.earlier = header t earlier; later = Capbuf.header buf; line; kind; detail }

let serial_add t buf =
  let ord = t.n_commits and seq = Capbuf.seq buf in
  record_header t buf;
  for i = 0 to Capbuf.n_reads buf - 1 do
    let line = Capbuf.read_line buf i and tr = Capbuf.read_time buf i in
    let b = touch t line in
    let p = t.tab in
    let writer = p.(b + f_writer) and vis = p.(b + f_vis) in
    if writer >= 0 && tr < vis then
      raise
        (violation t buf ~earlier:writer ~line ~kind:Serial.Rw
           ~detail:
             (Printf.sprintf
                "later read line %d at t=%d, before earlier's write became visible at t=%d" line tr
                vis));
    p.(b + f_head) <- new_reader t ~ord ~tr ~next:p.(b + f_head);
    p.(b + f_readers) <- p.(b + f_readers) + 1;
    if tr > p.(b + f_max_tr) then p.(b + f_max_tr) <- tr;
    t.live_entries <- t.live_entries + 1
  done;
  for i = 0 to Capbuf.n_writes buf - 1 do
    let line = Capbuf.write_line buf i and vis = Capbuf.visibility buf i in
    let b = touch t line in
    let p = t.tab in
    let writer = p.(b + f_writer) and prev_vis = p.(b + f_vis) in
    if writer >= 0 && vis < prev_vis then
      raise
        (violation t buf ~earlier:writer ~line ~kind:Serial.Ww
           ~detail:
             (Printf.sprintf
                "later's write to line %d became visible at t=%d, before earlier's at t=%d" line vis
                prev_vis));
    (* Only a read after [vis] can close a Wr cycle; find the newest one
       that is not this witness's own. *)
    if p.(b + f_max_tr) > vis then begin
      let n = ref p.(b + f_head) in
      while !n >= 0 do
        let r = !n in
        let tr = t.r_tr.(r) in
        if tr > vis && seq_of t t.r_ord.(r) <> seq then
          raise
            (violation t buf ~earlier:t.r_ord.(r) ~line ~kind:Serial.Wr
               ~detail:
                 (Printf.sprintf
                    "earlier read line %d at t=%d, after later's write became visible at t=%d"
                    line tr vis));
        n := t.r_next.(r)
      done
    end;
    if writer < 0 then t.live_entries <- t.live_entries + 1;
    t.live_entries <- t.live_entries - p.(b + f_readers);
    p.(b + f_writer) <- ord;
    p.(b + f_vis) <- vis;
    p.(b + f_head) <- -1;
    p.(b + f_readers) <- 0;
    p.(b + f_max_tr) <- min_int
  done

(* ------------------------------------------------------------------ *)
(* Feeding *)

let add_commit t buf =
  note_time t (Capbuf.time buf);
  (match t.serial_err with
  | Some _ -> ()
  | None -> ( try serial_add t buf with Found v -> t.serial_err <- Some v));
  (match (t.replay_err, t.replay_cur) with
  | Some _, _ | _, None -> ()
  | None, Some cur -> (
      match Replay.step cur buf with Ok () -> () | Error d -> t.replay_err <- Some d));
  (match (t.model, t.gate_commit_err) with
  | None, _ | _, Some _ -> ()
  | Some model, None -> (
      match
        Capbuf.fill_regs buf t.gate_regs;
        Staticcheck.Gate.check_footprint model ~ar:(Capbuf.ar buf) ~regs:t.gate_regs
          ~reads:(Capbuf.read_lines buf) ~n_reads:(Capbuf.n_reads buf)
          ~writes:(Capbuf.write_lines buf) ~n_writes:(Capbuf.n_writes buf)
      with
      | Ok () -> ()
      | Error v -> t.gate_commit_err <- Some v));
  t.n_commits <- t.n_commits + 1;
  if t.n_live > t.peak_live_lines then t.peak_live_lines <- t.n_live;
  if t.live_entries > t.peak_live_entries then t.peak_live_entries <- t.live_entries;
  t.since_sweep <- t.since_sweep + 1;
  if t.since_sweep >= t.sweep_every then begin
    t.since_sweep <- 0;
    sweep t
  end

let add_witness t w =
  Capbuf.load t.scratch w;
  add_commit t t.scratch

let add_driver_writes t ~time ~core:_ ~stores =
  note_time t time;
  match (t.replay_err, t.replay_cur) with
  | Some _, _ | _, None -> ()
  | None, Some cur -> Replay.apply_driver_writes cur stores

let add_lock_event t (ev : Lock_safety.event) =
  (match ev with
  | Lock_safety.Attempt_begin { time; core; _ } ->
      note_time t time;
      t.inflight.(core) <- time
  | Lock_safety.Attempt_end { time; core; _ } ->
      note_time t time;
      t.inflight.(core) <- -1
  | Lock_safety.Failed_mode { time; _ } | Lock_safety.Lock { time; _ } | Lock_safety.Unlock { time; _ } ->
      note_time t time);
  match t.lock_err with
  | Some _ -> ()
  | None -> (
      match Lock_safety.add t.locks ev with Ok () -> () | Error v -> t.lock_err <- Some v)

let set_ars t ars = t.model <- Option.map (fun g -> Staticcheck.Gate.model g ars) t.static_gate

let add_conflict t (c : Collector.conflict) =
  note_time t c.Collector.time;
  match (t.model, t.gate_conflict_err) with
  | None, _ | _, Some _ -> ()
  | Some model, None -> (
      match
        Staticcheck.Gate.check_conflict model ~aggressor:c.Collector.aggressor_ar
          ~victim:c.Collector.victim_ar ~line:c.Collector.line
      with
      | Ok () -> ()
      | Error v -> t.gate_conflict_err <- Some v)

let add_decision t (d : Collector.decision) =
  note_time t d.Collector.time;
  match (t.model, t.gate_decision_err) with
  | None, _ | _, Some _ -> ()
  | Some model, None -> (
      match
        Staticcheck.Gate.check_decision model ~ar:d.Collector.ar ~decision:d.Collector.decision
      with
      | Ok () -> ()
      | Error v -> t.gate_decision_err <- Some v)

(* ------------------------------------------------------------------ *)
(* Closing the run *)

let finish t ~final =
  let serial = match t.serial_err with Some v -> Error v | None -> Ok () in
  let replay =
    match (t.replay_err, t.replay_cur) with
    | Some d, _ -> Error d
    | None, None -> invalid_arg "Stream.finish: no initial snapshot was fed"
    | None, Some cur -> Replay.finish cur ~final
  in
  let locks =
    match t.lock_err with Some v -> Error v | None -> Lock_safety.finish t.locks
  in
  let static_ =
    Option.map
      (fun (_ : Staticcheck.Gate.model) ->
        (* Witness violations outrank decision violations, which outrank
           conflict violations: the witnesses-then-decisions-then-conflicts
           order of a gate run over the whole history. *)
        match (t.gate_commit_err, t.gate_decision_err, t.gate_conflict_err) with
        | Some v, _, _ -> Error v
        | None, Some v, _ -> Error v
        | None, None, Some v -> Error v
        | None, None, None -> Ok ())
      t.model
  in
  { commits = t.n_commits; serial; replay; locks; static_ }

let sink t =
  {
    Collector.sink_initial = attach t;
    sink_commit = (fun buf -> add_commit t buf);
    sink_driver_writes = (fun ~time ~core ~stores -> add_driver_writes t ~time ~core ~stores);
    sink_lock_event = (fun ev -> add_lock_event t ev);
    sink_decision = add_decision t;
    sink_conflict = add_conflict t;
    sink_ars = set_ars t;
    sink_stats =
      (fun () ->
        let s = stats t in
        (s.peak_live_lines, s.retired));
  }
