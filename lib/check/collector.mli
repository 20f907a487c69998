(** Forwards everything the engine emits for one checked run to a {!sink}.

    The engine (when created with a collector) feeds this during simulation:
    the initial memory snapshot, one witness per committed attempt, any
    store writes performed by workload drivers {e outside} atomic regions
    (thread-private scratch buffers; see DESIGN.md §9), the end-of-discovery
    decisions, and the one complete attempt-lifecycle stream
    ({!Lock_safety.event}). The collector numbers commits and retains
    nothing; each emission goes to the sink in emission order. The
    streaming checker ({!Stream.sink}) and the execution trace
    ([Machine.Trace.collector]) are its two sinks. *)

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
      (** Every attempt-lifecycle event, in emission order. *)
  sink_decision : decision -> unit;
  sink_conflict : conflict -> unit;
  sink_ars : Isa.Program.ar list -> unit;
  sink_stats : unit -> int * int;  (** (peak live lines, retired entries) *)
}
(** An online consumer of the emission stream. {!Stream.sink} builds one
    over the incremental oracles, [Machine.Trace.collector] one over the
    trace ring. Plain closures — no module dependency from here onto
    either. *)

type t

val create_streaming : cores:int -> sink -> t
(** A collector forwarding every emission to [sink] in emission order. *)

val cores : t -> int

val stream_stats : t -> int * int
(** [sink_stats] passthrough. The engine folds this into its perf counters
    at end of run. *)

val set_initial : t -> Mem.Store.t -> unit
(** The simulation's store after workload setup, before any simulated
    cycle; handed live to the sink. *)

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
    buffer, and lend it to the sink. Allocates nothing. *)

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
