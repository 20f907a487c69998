(** stack: Treiber-style linked stack.

    [push] is statically immutable — it loads the top pointer only as
    {e data} for the new node's next field, so its two-line footprint never
    moves across retries. [pop] dereferences the loaded top pointer, which
    other ARs rewrite: mutable. *)

val workload : Machine.Workload.t
