(** genome: segment-deduplication and assembly kernel (STAMP genome).

    Phase 1 deduplicates segments through a chained hash set; phase 2 links
    unique segments into chains. Every AR chases pointers that other ARs
    rewrite — five mutable ARs, matching paper Table 1 (0/0/5). *)

val workload : Machine.Workload.t
