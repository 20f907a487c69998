(** bayes: Bayesian-network structure learning kernel (STAMP bayes).

    The richest AR population of the suite: fourteen static regions over a
    task ring, per-variable parent lists and per-variable score records.
    Score/count/progress updates resolve records through read-only
    directories (five likely-immutable ARs); everything touching the parent
    lists or the ring is mutable (nine ARs) — paper Table 1's 0/5/9 split. *)

val workload : Machine.Workload.t
