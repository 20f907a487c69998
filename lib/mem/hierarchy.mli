(** Three-level cache hierarchy glued to the MESI directory.

    Private L1/L2 per core, shared L3, all tag-only (data lives in the
    backing {!Store}). Accesses return the latency to charge and the line the
    access evicted from the requesting core's L1 — the machine uses the latter
    for HTM capacity aborts. Lines locked by the requesting core hit with L1
    latency regardless of tag state (locked lines are pinned). An access
    allocates at most its [outcome] record; L1-latency hits share one. *)

type t

type outcome = {
  latency : int;  (** cycles to charge the requesting instruction *)
  l1_victim : Addr.line;
      (** the line this access pushed out of the requester's L1, -1 if none *)
}

val create :
  ?numa:Numa.t -> Params.t -> cores:int -> store:Store.t -> counters:Simrt.Counter.set -> t
(** [numa] (default {!Numa.flat}) adds per-(core socket, home slice) latency
    on every access that consults the directory beyond a private L1 hit:
    coherence exchanges, L3/memory fills, and cacheline-lock acquisitions.
    Charged cycles accumulate in the ["numa_adder_cycles"] counter. Raises
    [Invalid_argument] when the matrix is not {!Numa.well_formed}. *)

val params : t -> Params.t

val numa : t -> Numa.t

val numa_adder : t -> core:int -> Addr.line -> int
(** The asymmetry cycles [core] would pay to consult [line]'s home directory
    slice; zero on a flat matrix. Pure query — charges nothing. *)

val store : t -> Store.t

val directory : t -> Directory.t

val l1 : t -> core:int -> Cache.t

val l2 : t -> core:int -> Cache.t

val l3_set_of : t -> Addr.line -> int
(** The shared-L3 set index [line] maps to. Pure query: the PDES engine uses
    it to prove two cores' footprints cannot perturb each other's L3
    replacement state inside a lookahead window. *)

val read_line : t -> core:int -> Addr.line -> outcome
(** Obtain a shared copy of the line for [core]. *)

val write_line : t -> core:int -> Addr.line -> outcome
(** Obtain an exclusive copy for [core], invalidating remote copies. *)

val lock_line : t -> core:int -> Addr.line -> [ `Acquired of outcome | `Held_by of int ]
(** Attempt to lock a line (exclusive + pinned). Fails without side effects
    when another core holds the lock. *)

val unlock_line : t -> core:int -> Addr.line -> unit

val unlock_all : t -> core:int -> int
(** Bulk-unlock every line held by [core]; returns the number released. *)

val locked_by : t -> Addr.line -> int
(** The line's lock holder, -1 if unlocked. *)

val locked_lines : t -> core:int -> Addr.line list
(** Every line currently locked by [core] (release tracing and oracles). *)

val flush_core : t -> core:int -> unit
(** Drop all of [core]'s private-cache contents (used by tests). *)
