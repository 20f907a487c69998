(** Priority queue ordering simulator events by time: a timing wheel with
    one FIFO bucket per cycle of a sliding window, and a small heap for
    events beyond it.

    The global simulation loop pops the (time, payload) pair with the smallest
    time; ties are broken by insertion order (FIFO among equal times) so the
    simulation is fully deterministic. Scheduling inside the window and
    popping are O(1); reaching the next non-empty bucket costs one probe
    per empty cycle skipped. *)

type 'a t

val create : unit -> 'a t
(** An empty queue. Its bucket page comes from this domain's
    {!Pagepool}. *)

val release : 'a t -> unit
(** End of life: drop every event and give the bucket page back to
    {!Pagepool}. The queue must not be used afterwards. *)

val is_empty : 'a t -> bool

val length : 'a t -> int

val push : 'a t -> time:int -> 'a -> unit
(** [push q ~time x] schedules [x] at [time], which must be non-negative
    and may lie below the earliest queued time. *)

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
(** [replace_min q ~time x] is [ignore (pop_min q); push q ~time x] without
    freeing and retaking a slot. The engine's event loop reschedules the
    core it just stepped this way. Raises [Invalid_argument] when empty. *)

val requeue_run : 'a t -> time:int -> ('a -> bool) -> int
(** [requeue_run q ~time same] moves the earliest event, and after it every
    consecutive event of its time whose payload satisfies [same], to
    [time], in their order; returns how many moved. When [time] is later
    than theirs, that is as many [replace_min q ~time x] calls, each on the
    event then earliest with its own payload. Raises [Invalid_argument]
    when empty. *)

val peek_time : 'a t -> int option
(** Time of the earliest event without removing it. *)

val clear : 'a t -> unit
(** Drop every event. *)
