(** deque: bounded circular double-ended queue.

    Head and tail indices live on separate cachelines so opposite-end
    operations only conflict through the slot array. Both ARs compute slot
    addresses from a loaded index that other ARs increment, so both
    footprints are mutable. *)

val workload : Machine.Workload.t
(** 64 slots, one per line. *)
