(** Conflicting Reads Table (paper §5, Figure 7).

    Remembers cachelines that the atomic region only read, yet whose
    invalidation by another core caused an abort. On the next S-CL execution
    these lines are locked too, so the same conflict cannot recur.
    {!default_entries} entries, {!default_ways}-way set associative, LRU
    within each set. *)

type t

val default_entries : int
(** 64 entries, the paper's CRT (Table 2). *)

val default_ways : int
(** 8 ways. *)

val create : ?entries:int -> ?ways:int -> unit -> t
(** Defaults: {!default_entries} entries, {!default_ways} ways. [entries]
    must be a multiple of [ways]. *)

val insert : t -> Mem.Addr.line -> unit
(** Idempotent; refreshes LRU. *)

val mem : t -> Mem.Addr.line -> bool
(** Presence test; does not touch LRU (pure query used while preparing the
    ALT). *)

val remove : t -> Mem.Addr.line -> unit
(** Drop an entry (no-op when absent). Used to decay entries once an S-CL
    execution that locked the line committed: the conflict the entry guarded
    against has been resolved, and keeping hot shared lines in the CRT
    forever would convoy every later S-CL behind their locks. *)

val size : t -> int

val clear : t -> unit
