(** queue: Michael–Scott-style linked queue with a permanent sentinel.

    Enqueue chases the tail pointer, dequeue advances the head pointer; both
    ARs dereference pointers that other ARs rewrite — mutable footprints. *)

val workload : Machine.Workload.t
