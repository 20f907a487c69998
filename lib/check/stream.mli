(** Incremental, bounded-memory execution oracle (DESIGN.md §14).

    Consumes the engine's emission stream through a {!Collector} — witness
    by witness, at commit time — and produces, for every oracle, the result
    a post hoc run of {!Serial.check}, a {!Replay.start} replay,
    {!Lock_safety.check} and the static gate over the retained history
    would produce, field for field, while retiring state the committed
    frontier proves inert:

    - {b serializability}: {!Serial}'s per-line state under a retirement
      discipline. Let F be the minimum attempt-begin time over in-flight
      attempts (tracked from the lock-event stream; the latest stream time
      when all cores are idle). Every future read time and visibility is
      ≥ F, so readers with first-read time ≤ F and writers with visibility
      ≤ F can never close a Wr / Rw / Ww cycle and are dropped, folded into
      high-water counters. The state is ints in flat arrays — per-line
      writer and reader summaries, plus the report header of each witness
      a live entry still names — so no witness is retained: the checker
      holds O(live entries) ints, not O(history) witnesses.
    - {b replay}: the windowed {!Replay} cursor — committed prefixes are
      replayed and discarded; fed through {!sink}, it replays on the
      simulation's live store plus the few words where the two differ
      ({!Replay.attach}).
    - {b lock safety}: {!Lock_safety} is already incremental.
    - {b static gate}: each witness / decision is checked as it arrives.

    Witnesses arrive as borrowed {!Capbuf.t} views and are not used after
    {!add_commit} returns. A commit allocates nothing unless it reports a
    violation. Measured at the benchmark's serving points (about a
    thousand live lines), the checker holds a few hundred KiB and a
    checked run's peak RSS is within 20 MiB of the unchecked run's
    (DESIGN.md §14).

    Each oracle latches its first error and stops being fed (its post hoc
    counterpart stops at the first error too); the others keep running, so
    the final {!results} match the post hoc oracles exactly. The tests hold
    the two equal through a post hoc reference built on the same modules. *)

type stats = {
  live_lines : int;  (** lines currently holding checker state *)
  peak_live_lines : int;  (** high-water mark of [live_lines] *)
  live_entries : int;  (** live reader + writer entries across all lines *)
  peak_live_entries : int;
  retired : int;  (** entries dropped by the frontier discipline *)
  commits : int;
}

type results = {
  commits : int;
  serial : (unit, Serial.violation) result;
  replay : (unit, Replay.divergence) result;
  locks : (unit, Lock_safety.violation) result;
  static_ : (unit, Staticcheck.Gate.violation) result option;
}
(** The combined verdict; {!Verdict.t} is this type. *)

type t

val create : ?static_gate:Staticcheck.Gate.t -> ?sweep_every:int -> cores:int -> unit -> t
(** [sweep_every] (default 512) is the retirement cadence in commits: peak
    live state is bounded by the live lines plus one sweep window. Raises
    [Invalid_argument] when it is < 1. Allocates about 10 KiB. The gate's
    static model ({!Staticcheck.Gate.model}) is taken once, when {!sink}'s
    [sink_ars] receives the workload's region list (built, or reused from
    the last checked simulation of that workload on this domain) ([Engine.create] hands
    it over before the first cycle); a region checked before that, or
    missing from the list, is reported as a static-gate violation. *)

val set_initial : t -> Mem.Store.image -> unit
(** Replay from this initial image ({!Replay.start}) — for hand-fed
    histories; {!sink} instead replays on the store the engine hands over
    ({!Replay.attach}), and [final] in {!finish} must then be that store's
    final snapshot. One of the two must happen before the first commit for
    the replay oracle to run; {!finish} raises [Invalid_argument]
    otherwise. *)


val add_commit : t -> Capbuf.t -> unit
(** Feed witnesses in commit order ([seq] ascending, non-decreasing
    [time]). The view is only read during the call. *)

val add_witness : t -> Witness.t -> unit
(** {!add_commit} for a retained witness (hand-built histories). *)

val add_driver_writes :
  t -> time:int -> core:int -> stores:(Mem.Addr.t * int) list -> unit

val add_lock_event : t -> Lock_safety.event -> unit
(** Also drives the frontier: [Attempt_begin]/[Attempt_end] mark cores
    in-flight/idle; every other event only advances the stream's clock. *)

val add_decision : t -> Collector.decision -> unit

val finish : t -> final:Mem.Store.image -> results
(** Close the run: whole-image replay backstop, lock-release check, and the
    latched first errors. *)

val stats : t -> stats

val sink : t -> Collector.sink
(** Wrap this checker as a {!Collector.sink} for
    {!Collector.create_streaming}, which is how the engine's [?check]
    collector feeds it without the engine changing. *)
