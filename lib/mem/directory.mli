(** Full-map MESI directory with cacheline locking.

    One entry per line. Tracks the exclusive owner (M/E), the sharer set
    (bitmask over cores) and the CLEAR lock holder. The directory is the
    ordering point: lock acquisition, invalidation and downgrade all happen
    atomically at simulation-event granularity, which is the retry-based
    protocol the paper adopts to avoid the transient-state deadlock of its
    Figure 6.

    Entries live in line-indexed pages (see DESIGN.md §7b); no request
    allocates. Core ids are reported as ints, -1 meaning none. *)

type t

val max_cores : int
(** The most cores a directory tracks (sharer sets are bitmasks in one
    immediate int). *)

val create : cores:int -> lines:int -> t
(** [lines] sizes the page table; lines beyond it are still accepted, up to
    2^32. Changing the state of a line outside [\[0, 2^32)] raises
    [Invalid_argument]; so does [cores] outside [\[1, max_cores\]]. Reading a
    line outside the range sees an untouched line. *)

type coherence = private int
(** Outcome of a coherence request, used for latency/energy accounting,
    packed into an immediate. *)

val msgs : coherence -> int
(** Directory message hops incurred. *)

val from_remote : coherence -> bool
(** The data was sourced from a remote private cache. *)

val held : coherence -> bool
(** The requester was the owner or a sharer before the request. A core's
    private caches hold only lines the directory lists it for, so when
    this is false they miss. *)

val read : t -> core:int -> Addr.line -> coherence
(** Obtain a shared copy. Downgrades a remote modified owner if needed. *)

val write : t -> core:int -> Addr.line -> coherence
(** Obtain an exclusive copy. The cores whose copies were invalidated are
    left in {!invalidated}, for propagating invalidations into their private
    tag stores. *)

val invalidated : t -> int
(** Bitmask of the cores whose copies the last {!write} or {!lock}
    invalidated. *)

val drop_core : t -> core:int -> Addr.line -> unit
(** Remove [core] from the entry (on private-cache eviction). *)

val owner : t -> Addr.line -> int
(** The exclusive owner, -1 if none. *)

val is_sharer : t -> core:int -> Addr.line -> bool

(** {1 Cacheline locking} *)

val lock : t -> core:int -> Addr.line -> int
(** Try to lock the line for [core]: -1 when [core] now holds it, else the
    current holder, untouched. Locking implies exclusive ownership:
    acquisition invalidates other copies and leaves those cores in
    {!invalidated}. Re-locking one's own line invalidates nothing and makes
    [core] its owner again (an eviction may have dropped it). *)

val unlock : t -> core:int -> Addr.line -> unit
(** Release; no-op if [core] does not hold the lock. *)

val unlock_all : t -> core:int -> unit
(** Bulk release of every line locked by [core] (end of a CL-mode AR). *)

val locked_by : t -> Addr.line -> int
(** The lock holder, -1 if unlocked. *)

val locked_count : t -> core:int -> int

val locked_lines : t -> core:int -> Addr.line list
(** Sorted. *)

val release : t -> unit
(** End of life: give every owned page back to {!Simrt.Pagepool} and point
    its slot at the shared untouched page, so a stale query reads an
    untouched line, never a recycled page. *)
