(** Named event counters.

    A [Counter.set] is a bag of monotonically increasing counters used for
    statistics and energy accounting. Counters are created on first use so
    call sites stay terse. Hot paths resolve a name once into a {!cell} and
    bump that instead of hashing the name on every event. *)

type set

type cell
(** One named counter of a set, resolved once. *)

val create_set : unit -> set

val cell : set -> string -> cell
(** The named counter's cell, created at 0 if new. The cell stays the
    counter's storage for the life of the set, across {!reset}. *)

val bump : cell -> int -> unit
(** Add a non-negative amount. *)

val tick : cell -> unit
(** Add 1. *)

val incr : set -> string -> unit
(** Add 1 to the named counter. *)

val add : set -> string -> int -> unit
(** Add an arbitrary non-negative amount. *)

val get : set -> string -> int
(** Current value; 0 if never touched. *)

val to_list : set -> (string * int) list
(** Every counter with a cell (touched or resolved), sorted by name. *)

val reset : set -> unit
(** Zero every counter in place; resolved cells keep counting. *)

val merge_into : dst:set -> set -> unit
(** Accumulate every counter of the source into [dst]. *)
