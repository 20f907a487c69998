(** intruder: network-intrusion-detection kernel (STAMP intruder).

    A shared fragment ring feeds per-flow reassembly state. [pop_fragment]
    dequeues and scans a whole fragment payload — a comparatively large,
    mutable AR (the paper singles intruder out for its large-but-convertible
    regions); the flow and detector updates go through read-only directories
    (likely immutable). Table 1 split: 0/2/1. *)

val workload : Machine.Workload.t
