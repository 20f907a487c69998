(** Small dense-int set on a growable array.

    The engine's per-attempt footprints and transactional read/write sets
    are a handful of cache-line ids; a flat array with linear membership
    beats hashing at that size and allocates nothing per operation.
    Members are kept unique in insertion order, with a lazily (re)built
    sorted view cached until the next mutation. *)

type t

val create : ?hint:int -> unit -> t
(** Empty set; [hint] pre-sizes the backing array (default 16). *)

val clear : t -> unit
(** O(1); keeps the backing array. *)

val size : t -> int

val is_empty : t -> bool

val mem : t -> int -> bool
(** Linear scan over the members. *)

val add : t -> int -> unit
(** No-op when already present. *)

val remove : t -> int -> unit
(** No-op when absent; the other members keep their order. *)

val iter : t -> (int -> unit) -> unit
(** Insertion order. *)

val sorted_view : t -> int array
(** Ascending members. Cached: repeated calls without intervening {!add} /
    {!clear} return the same array. The array is never mutated afterwards —
    holding it across later mutations is safe — but callers must not write
    to it. *)

val sorted_list : t -> int list
