(** Explored Region Table (paper §5, Figure 7).

    One entry per atomic region, keyed by the region's program counter (here:
    the AR id). Fully associative with LRU replacement, 16 entries by
    default. Each entry records whether the region is still a candidate for
    cacheline-locked re-execution ([is_convertible]), whether a retry may
    start non-speculatively ([is_immutable]) and a 2-bit saturating counter of
    discoveries that ran out of store-queue resources; when that counter
    saturates, discovery is disabled for the region. *)

type entry = private {
  pc : int;
  mutable is_convertible : bool;
  mutable is_immutable : bool;
  mutable sq_full : int;  (** saturating in [0, 3] *)
}

type t

val create : ?entries:int -> unit -> t
(** Default 16 entries. *)

val lookup : t -> pc:int -> entry option
(** Find without allocating; refreshes LRU on hit. *)

val lookup_or_insert : t -> pc:int -> entry
(** On miss, inserts a fresh entry (convertible, immutable, counter 0),
    evicting the LRU entry if full. *)

val mark_not_convertible : entry -> unit

val mark_not_immutable : entry -> unit

val note_sq_full : t -> pc:int -> unit
(** Saturating increment of the SQ-full counter. *)

val note_commit : t -> pc:int -> unit
(** Decrement of the SQ-full counter on commit (floor 0). *)

val discovery_enabled : entry -> bool
(** False when the SQ-full counter is saturated or the region is marked
    non-convertible. *)

val occupancy : t -> int
