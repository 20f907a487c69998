(** Global view of speculative sharers, the conflict-detection substrate.

    Maps each line to the bitmask of cores currently holding it in their
    speculative read or write set. Conceptually this is the information the
    directory derives from coherence requests; centralising it keeps the
    eager conflict checks O(1). Cores whose discovery entered failed mode
    withdraw their entries — their accesses are flagged non-aborting and must
    not generate new conflicts (paper §4.1).

    Lines are dense small ints (word address / words-per-line), so the masks
    live in two flat line-indexed arrays: every operation is an array access,
    no hashing, no allocation. *)

type t

val create : ?lines:int -> cores:int -> unit -> t
(** [lines] pre-sizes the arrays (one slot per line of the simulated
    memory), rounded up to a whole number of 4096-line granules; they grow
    automatically if a larger line id appears. *)

val add_reader : t -> core:int -> Mem.Addr.line -> unit

val add_writer : t -> core:int -> Mem.Addr.line -> unit

val remove_line : t -> core:int -> Mem.Addr.line -> unit
(** Withdraw [core] from one line (idempotent). *)

val remove_core : t -> core:int -> lines:Mem.Addr.line list -> unit
(** Withdraw [core] from the given lines (commit, abort or failed-mode
    entry). *)

val readers : t -> Mem.Addr.line -> int
(** Bitmask of speculative readers. *)

val writers : t -> Mem.Addr.line -> int

val readers_excl : t -> core:int -> Mem.Addr.line -> int
(** Reader bitmask with [core]'s own bit cleared — the victim set of an
    eager conflict check, without building a list. *)

val writers_excl : t -> core:int -> Mem.Addr.line -> int

val iter_cores : int -> (int -> unit) -> unit
(** [iter_cores mask f] applies [f] to every set bit of a core bitmask in
    ascending core order. *)

val conflicting_readers : t -> core:int -> Mem.Addr.line -> int list
(** Cores other than [core] with the line in their read set. (List-building
    convenience for tests; the engine iterates {!readers_excl} masks.) *)

val conflicting_writers : t -> core:int -> Mem.Addr.line -> int list

val clear : t -> unit

val release : t -> unit
(** End of life: give both arrays back to {!Simrt.Pagepool}. Afterwards
    every line reads as held by no core. *)
