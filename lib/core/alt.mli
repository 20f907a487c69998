(** Addresses-to-Lock Table (paper §5, Figure 7).

    Fills during discovery with every cacheline the atomic region touches,
    then drives cacheline locking on the retry. Entries are kept sorted by
    the lexicographical locking key — the directory set index — so locks are
    acquired in a deadlock-free order. Entries whose key collides (same
    directory set) form a {e lock group}: all but the last entry of a group
    carry the [conflict] bit, and the group is acquired with the combined
    probe-then-lock-the-set mechanism of the paper.

    Capacity is 32 entries; recording a 33rd distinct line overflows, which
    marks the region non-convertible. *)

type entry = private {
  line : Mem.Addr.line;
  dir_set : int;
  mutable written : bool;  (** the region stored to this line in discovery *)
  mutable needs_locking : bool;
  mutable locked : bool;
  mutable hit : bool;
  mutable conflict : bool;  (** not the last entry of its lock group *)
}

type t

val create : ?capacity:int -> dir_set_of:(Mem.Addr.line -> int) -> unit -> t

val size : t -> int

val reset : t -> unit
(** Empty the table for a fresh discovery. *)

val record : t -> Mem.Addr.line -> written:bool -> [ `Ok | `Overflow ]
(** Note an access. Re-recording a line merges ([written] ORs in). Returns
    [`Overflow] when a new line does not fit; the table keeps its current
    contents so the footprint seen so far is still inspectable. *)

val lines : t -> Mem.Addr.line list
(** All recorded lines, in lock order. *)

val written_lines : t -> Mem.Addr.line list

val prepare_locking : t -> lock_all:bool -> extra:(Mem.Addr.line -> bool) -> unit
(** Set [needs_locking]: every line when [lock_all] (NS-CL); otherwise
    written lines plus lines for which [extra] holds (S-CL: CRT hits). Also
    recomputes lock-group [conflict] bits and clears [locked]/[hit]. *)

val to_lock : t -> entry list
(** Entries with [needs_locking], in lock order. *)

val entries : t -> entry list
(** All entries in lock order (inspection and tests). *)

val mark_locked : entry -> unit

val all_locked : t -> bool
(** Every entry that needs locking has been locked. *)

val lock_groups : t -> entry list list
(** Entries that need locking, grouped by directory set, in lock order. *)
