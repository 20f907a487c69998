(** Receives everything the engine emits for one checked run.

    The engine (when created with a collector) feeds this during simulation:
    the initial memory snapshot, one witness per committed attempt, any
    store writes performed by workload drivers {e outside} atomic regions
    (thread-private scratch buffers; see DESIGN.md §9), and the complete
    lock/release event stream. An accumulating collector keeps it all for
    {!Verdict.evaluate}; a streaming one forwards each emission to a
    {!sink}. *)

type entry =
  | Commit of Witness.t
  | Driver_writes of { time : int; core : int; stores : (Mem.Addr.t * int) list }
      (** Non-transactional stores a driver issued while choosing its next
          operation, in program order. Replayed positionally; not part of the
          serializability check. *)

type decision = {
  time : int;
  core : int;
  ar : Isa.Program.ar;
  decision : Clear.Decision.mode;
}
(** One end-of-discovery CLEAR assessment (paper Figure 2) the engine
    performed; the static soundness gate asserts each lies inside the
    statically predicted decision envelope. *)

type conflict = {
  time : int;
  aggressor_core : int;
  victim_core : int;
  aggressor_ar : Isa.Program.ar;
  victim_ar : Isa.Program.ar;
  line : Mem.Addr.line;
}
(** One engine-observed conflict event with a known line: a doom (the
    aggressor's access or lock acquisition killed the victim's speculative
    attempt) or a NACK (the aggressor held the line exclusively and the
    victim's request was refused). The static soundness gate asserts each
    line lies in the static may-conflict cover for the AR pair
    ({!Staticcheck.Conflict}). The engine deduplicates per
    (aggressor AR, victim AR, line), so volume is bounded by the static
    matrix size, not the run length. *)

type sink = {
  sink_initial : Mem.Store.t -> unit;
      (** Receives the simulation's live store after workload setup, before
          any simulated cycle; the sink may snapshot or observe it. *)
  sink_commit : Capbuf.t -> unit;
      (** Receives the committing core's sealed capture buffer as a
          borrowed witness view, valid only during this call (see
          {!Capbuf}). *)
  sink_driver_writes : time:int -> core:int -> stores:(Mem.Addr.t * int) list -> unit;
  sink_lock_event : Lock_safety.event -> unit;
  sink_decision : decision -> unit;
  sink_conflict : conflict -> unit;
  sink_ars : Isa.Program.ar list -> unit;
  sink_stats : unit -> int * int;  (** (peak live lines, retired entries) *)
}
(** An online consumer of the emission stream. A streaming collector
    forwards every emission here instead of accumulating it, so a checked
    run retains no witness; {!Stream.sink} builds one over the incremental
    oracles. Plain closures — no module dependency from here onto the
    streaming checker. *)

type t

val create : cores:int -> t
(** A post hoc (accumulating) collector: everything is retained for
    {!Verdict.evaluate} after the run. Each borrowed witness is copied
    ({!Capbuf.to_witness}) as it arrives. *)

val create_streaming : cores:int -> sink -> t
(** A streaming collector: emissions are forwarded to [sink] in emission
    order and discarded; {!entries}/{!witnesses}/{!lock_events}/
    {!decisions} stay empty. Witness [seq] assignment and
    {!commit_count} work identically in both modes. *)

val cores : t -> int

val is_streaming : t -> bool

val stream_stats : t -> (int * int) option
(** [sink_stats] passthrough — [None] on accumulating collectors. The
    engine folds this into its perf counters at end of run. *)

val set_initial : t -> Mem.Store.t -> unit
(** The simulation's store after workload setup, before any simulated
    cycle. An accumulating collector keeps a snapshot of it (a cheap
    chunk-sharing freeze, not a copy) for {!initial}; a streaming collector
    hands the live store to its sink. *)

val add_commit :
  t ->
  Capbuf.t ->
  time:int ->
  core:int ->
  ar:Isa.Program.ar ->
  init_regs:(Isa.Instr.reg * int) list ->
  mode:Witness.mode ->
  retries:int ->
  unit
(** Record a committed attempt whose footprint and store log are in the
    given capture buffer: assign the commit-order [seq], {!Capbuf.seal} the
    buffer, and copy it (accumulating) or lend it to the sink (streaming).
    Allocates nothing on a streaming collector. *)

val add_driver_writes : t -> time:int -> core:int -> stores:(Mem.Addr.t * int) list -> unit
(** Ignored when [stores] is empty. *)

val add_lock_event : t -> Lock_safety.event -> unit

val add_decision :
  t -> time:int -> core:int -> ar:Isa.Program.ar -> decision:Clear.Decision.mode -> unit

val set_ars : t -> Isa.Program.ar list -> unit
(** The workload's full static AR list, fed once at engine creation — the
    universe the may-conflict matrix is built over. *)

val add_conflict :
  t ->
  time:int ->
  aggressor_core:int ->
  victim_core:int ->
  aggressor_ar:Isa.Program.ar ->
  victim_ar:Isa.Program.ar ->
  line:Mem.Addr.line ->
  unit

val initial : t -> Mem.Store.image option
(** The snapshot {!set_initial} took; [None] on streaming collectors. *)

val entries : t -> entry list
(** Commits and driver writes, in emission order. *)

val witnesses : t -> Witness.t list
(** Just the commits, in commit order. *)

val lock_events : t -> Lock_safety.event list

val decisions : t -> decision list
(** End-of-discovery decisions, in emission order. *)

val conflicts : t -> conflict list
(** Deduplicated conflict events, in emission order. *)

val ars : t -> Isa.Program.ar list
(** As fed by {!set_ars}; empty if the engine never called it. *)

val commit_count : t -> int
