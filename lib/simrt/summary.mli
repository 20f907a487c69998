(** Statistical summaries over repeated simulation runs.

    The paper runs every application 10 times with different seeds and reports
    the trimmed mean after removing 3 outliers; these helpers implement that
    protocol plus the geometric mean used for the cross-benchmark average. *)

val mean : float list -> float
(** Arithmetic mean; 0 on the empty list. *)

val trimmed_mean : trim:int -> float list -> float
(** [trimmed_mean ~trim xs] removes the [trim] values farthest from the median
    and averages the rest. If fewer than [trim + 1] values remain, it degrades
    gracefully to the plain mean. *)

val geomean : float list -> float
(** Geometric mean of positive values; 0 on the empty list. *)

val median : float list -> float
