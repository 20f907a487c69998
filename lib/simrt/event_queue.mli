(** Binary min-heap priority queue ordering simulator events by time,
    stored as parallel arrays (no record per event).

    The global simulation loop pops the (time, payload) pair with the smallest
    time; ties are broken by insertion order (FIFO among equal times) so the
    simulation is fully deterministic. *)

type 'a t

val create : unit -> 'a t

val is_empty : 'a t -> bool

val length : 'a t -> int

val push : 'a t -> time:int -> 'a -> unit
(** [push q ~time x] schedules [x] at [time]. [time] must be
    non-negative. *)

val pop : 'a t -> (int * 'a) option
(** Remove and return the earliest event, or [None] if empty. *)

val min_time : 'a t -> int
(** Time of the earliest event. Raises [Invalid_argument] when empty. *)

val min_payload : 'a t -> 'a
(** Payload of the earliest event, left in place. Raises [Invalid_argument]
    when empty. *)

val pop_min : 'a t -> 'a
(** Remove the earliest event and return its payload; read its time with
    {!min_time} first. The allocation-free form of {!pop}. Raises
    [Invalid_argument] when empty. *)

val replace_min : 'a t -> time:int -> 'a -> unit
(** [replace_min q ~time x] is [ignore (pop_min q); push q ~time x] in one
    sift: the same pop order afterwards, half the heap work. The engine's
    event loop reschedules the core it just stepped this way. Raises
    [Invalid_argument] when empty. *)

val peek_time : 'a t -> int option
(** Time of the earliest event without removing it. *)

val pop_until : 'a t -> time:int -> (int * 'a) list
(** [pop_until q ~time] removes and returns every event scheduled at or
    before [time], in exactly the order repeated {!pop} calls would yield
    ((time, insertion) order). Batched drain for windowed consumers: the
    horizon is tested against the heap root, so events beyond it pay no heap
    operation at all. *)

val clear : 'a t -> unit
