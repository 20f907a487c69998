(** ssca2: graph-construction kernel (STAMP SSCA2 kernel 1).

    Tiny atomic regions appending edges to per-node adjacency arrays: the
    degree increment and the edge write have pre-computed addresses
    (immutable), and the global statistics update goes through the read-only
    graph descriptor (likely immutable) — paper Table 1's 2/1/0 split. *)

val workload : Machine.Workload.t
