(** Priority queue ordering simulator events by time: a binary min-heap
    stored as parallel arrays (no record per event), plus FIFO lanes beside
    it.

    The global simulation loop pops the (time, payload) pair with the smallest
    time; ties are broken by insertion order (FIFO among equal times) so the
    simulation is fully deterministic.

    A lane holds events whose times arrive in nondecreasing order, so it
    needs no sifting: an append and a pop are O(1). Every event, heap or
    lane, takes its insertion rank from one shared counter, and every read
    and pop below looks at the heap root and every lane head by
    (time, insertion). Events therefore come out in exactly the order one
    heap holding them all would give. *)

type 'a t

type lane

val create : unit -> 'a t

val add_lane : 'a t -> lane
(** A new, empty lane of this queue. *)

val is_empty : 'a t -> bool

val length : 'a t -> int
(** Events queued, in the heap and every lane. *)

val push : 'a t -> time:int -> 'a -> unit
(** [push q ~time x] schedules [x] at [time] on the heap. [time] must be
    non-negative. *)

val append : 'a t -> lane -> time:int -> 'a -> unit
(** [append q l ~time x] schedules [x] at [time] on lane [l]. Raises
    [Invalid_argument] when [time] is negative or below the time of the
    lane's last event. *)

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
(** [replace_min q ~time x] is [ignore (pop_min q); push q ~time x]: the
    same pop order afterwards, and one sift when the earliest event was on
    the heap. The engine's event loop reschedules the core it just stepped
    this way. Raises [Invalid_argument] when empty. *)

val requeue : 'a t -> lane -> time:int -> 'a -> unit
(** [requeue q l ~time x] is [ignore (pop_min q); append q l ~time x]: the
    earliest event moves onto lane [l]. Raises [Invalid_argument] when [q]
    is empty or as {!append} does. *)

val peek_time : 'a t -> int option
(** Time of the earliest event without removing it. *)

val pop_until : 'a t -> time:int -> (int * 'a) list
(** [pop_until q ~time] removes and returns every event scheduled at or
    before [time], in exactly the order repeated {!pop} calls would yield
    ((time, insertion) order). Batched drain for windowed consumers: events
    beyond the horizon pay no heap operation at all. *)

val clear : 'a t -> unit
(** Drop every event and restart the insertion counter. Lanes stay
    registered, empty. *)
