(** Open-system request queue: the arrival process and per-request
    lifecycle tracker behind {!Config.open_queue}.

    The closed-loop engine couples the clock to the workload — each core
    issues [ops_per_thread] operations and stops, so load is whatever the
    machine sustains. An open system decouples them: requests arrive on
    their own schedule (offered load), queue while every core is busy, and
    each records enqueue → dispatch → commit timestamps so the harness can
    report sojourn-latency percentiles under overload.

    Determinism: the full arrival schedule is generated at {!create} from
    the RNG handed in (a dedicated split of the engine's root seed), with a
    draw count fixed by the parameters alone. Everything after that is pure
    integer bookkeeping, so runs stay bit-identical per seed at any job
    count. *)

type t

val generate : rate:float -> requests:int -> process:Config.open_process -> Simrt.Rng.t -> int array
(** The raw arrival schedule (absolute arrival times, strictly increasing)
    {!create} draws. Exposed so tests can pin the interarrival stream
    bit-for-bit; gaps are clamped to ≥ 1 cycle, and the Poisson draw is
    clamped away from 1.0 so a tail sample can never overflow to a
    non-finite gap. *)

val create : Config.open_queue -> Simrt.Rng.t -> t
(** Draws all [open_requests] interarrival gaps up front (each clamped to
    ≥ 1 cycle). [Open_poisson] uses inverse-CDF exponential sampling with
    mean [1000 / open_rate] cycles; [Open_burst] reuses
    {!Sched.Profile.sample_dist}'s inverse-power kernel with its span
    chosen to match that same mean, so the two processes are comparable at
    equal offered load. *)

val admit_until : t -> now:int -> unit
(** Move every request whose arrival time is ≤ [now] from the schedule
    into the backlog, in arrival order. When a cap is set and the backlog
    is full, the request is dropped (saturation) instead. Idempotent;
    callers invoke it before every dispatch attempt, which makes the lazy
    admission exact. *)

val dispatch : t -> now:int -> int option
(** Pop the oldest waiting request (FIFO) and stamp its dispatch time.
    [None] when the backlog is empty. *)

val complete : t -> req:int -> now:int -> unit
(** Stamp [req]'s commit time. Raises [Invalid_argument] if the request
    already completed — one request maps to exactly one committed AR. *)

val next_arrival : t -> int
(** Arrival time of the earliest request not yet admitted or dropped;
    [max_int] once the schedule is exhausted. Idle cores sleep until this. *)

val exhausted : t -> bool
(** No future arrivals and nothing waiting: dispatchers can park. *)

val backlog_depth : t -> int

val total : t -> int

val admitted : t -> int

val dropped : t -> int

val completed : t -> int

val qdepth_hw : t -> int
(** Backlog-depth high-water mark over the run. *)

val last_arrival : t -> int
(** Arrival time of the final generated request (0 when none). *)

val sojourns : t -> int array
(** [commit - arrival] for every completed request, in request order. *)

val waits : t -> int array
(** [dispatch - arrival] for every dispatched request, in request order. *)
