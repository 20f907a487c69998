(** kmeans: concurrent centroid accumulation (STAMP kmeans kernel).

    Threads fold points into per-cluster accumulators. The cluster is chosen
    outside the AR (the assignment step), so the only indirection is through
    the read-only centre directory: two likely-immutable ARs plus one
    immutable global-delta counter, matching paper Table 1 (1/2/0).

    [high_contention] (kmeans-h) uses few clusters; kmeans-l uses many. *)

val high : Machine.Workload.t
(** kmeans-h: 6 clusters. *)

val low : Machine.Workload.t
(** kmeans-l: 48 clusters. *)
