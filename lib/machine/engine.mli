(** The simulated multicore: event loop, HTM semantics and CLEAR modes.

    One engine simulates one run: [cores] threads each executing
    [ops_per_thread] operations of a workload. Per-core clocks advance
    through a global event heap at instruction granularity; everything is
    deterministic given the configuration seed.

    Execution of one atomic region follows the paper:

    - attempt 0 runs speculatively and, under CLEAR, doubles as discovery
      (footprint into the ALT, indirection bits, SQ pressure);
    - on a conflict the discovery continues in failed mode to the region's
      end, then the decision tree picks NS-CL, S-CL or a plain retry;
    - NS-CL/S-CL read-lock the fallback lock and acquire cacheline locks in
      lexicographical (directory-set) order; requests reaching a remotely
      locked line follow the deadlock-avoidance protocol of paper Figures 5
      and 6 — plain speculative requesters stall and re-issue, S-CL
      requesters (which hold locks) are nacked and abort;
    - after [max_retries] counted retries the fallback path takes the
      fallback lock exclusively (the single global lock under HTM, the
      region's own mutex under SLE).

    The four modes are {!Stats.commit_mode}, the same type as
    {!Check.Witness.mode}. They share one load and one store path, which
    differ per mode in only two ways: whether the access is tracked by
    conflict detection (plain speculation always, S-CL off its locked
    lines, NS-CL and fallback never), and whether writes are buffered until
    commit ({!Check.Witness.mode_buffered}). Every attempt, in every mode,
    opens at one site and ends at one site shared by commit and abort, which
    emit its [Attempt_begin] and its [Attempt_end] with the outcome; so each
    attempt has a begin and an end record. Each lifecycle event
    ({!Check.Lock_safety.event}) has exactly one emission site.

    When the configuration carries an {!Config.open_queue}, the fixed
    per-core op count is replaced by the open-system frontend: an idle core
    pulls the next queued request ({!Openq}), parks until the next arrival
    when the backlog is empty, and finishes once the arrival schedule is
    exhausted. Closed-loop configurations are untouched bit-for-bit. *)

type t

val create : ?check:Check.Collector.t -> Config.t -> Workload.t -> t
(** Builds the machine, allocates the backing store and runs the workload's
    [setup]. When [check] is given, the engine captures the material the
    execution oracle needs: the store after setup, one witness per
    committed attempt (read/write footprint with first-access cycles plus
    the drained store log — O(footprint) per commit, lent to the collector
    as the core's {!Check.Capbuf.t}), non-transactional driver writes, the
    end-of-discovery decisions, and the complete attempt-lifecycle stream.
    A {!Trace.collector} consumes the same emissions. Capture has no effect
    on simulated behaviour: results are bit-identical with and without it. *)

val run : t -> Stats.t
(** Simulate until every thread finished its operations. Raises [Failure] if
    4e9 cycles elapse first — a livelock guard, not an
    expected outcome. The returned statistics include the total cycle count
    of the parallel phase. *)

val store : t -> Mem.Store.t
(** The backing store, for post-run invariant checks in tests. *)

val perfctr : t -> Simrt.Perfctr.t
(** Hot-path performance counters accumulated by {!run}. Engine-internal
    instrumentation only — never part of the simulated statistics, so reading
    (or ignoring) them cannot affect simulation output. *)

val openq : t -> Openq.t option
(** The open-system request queue, present iff the configuration set
    [openloop]. After {!run} it holds the full per-request lifecycle
    (arrival/dispatch/commit stamps) the latency reporter reads. *)

val release : t -> unit
(** End of life: give the engine's cache, directory, store, conflict-map
    and event-wheel pages back to this domain's {!Simrt.Pagepool}, so the
    next engine built on the domain reuses them instead of allocating. Read
    what you need first: afterwards the caches are empty, the directory
    untouched and the store reads zeros, except through a
    {!Mem.Store.snapshot} taken before, which stays intact. The returned
    {!Stats.t}, {!perfctr} and {!openq} are unaffected. *)

val run_workload : Config.t -> Workload.t -> Stats.t
(** [create] + [run] + [release]. *)
