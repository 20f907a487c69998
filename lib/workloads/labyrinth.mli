(** labyrinth: grid-routing kernel (STAMP labyrinth).

    The driver plans a random walk through the grid and writes it to a
    thread-private path buffer; the AR then atomically claims every cell of
    the path (check-then-write over dozens of grid lines). The large,
    branch-on-grid footprints are all mutable and frequently overflow the
    ALT, so labyrinth runs mostly speculatively or in fallback — the paper's
    observed behaviour. Three ARs: claim, erase, validate. *)

val workload : Machine.Workload.t
(** A 24x24 grid and routes of 18 cells. *)
