(** Exact latency percentiles (nearest-rank, no interpolation).

    The open-system harness reports tail latency, where approximate
    digests would defeat the point: a p999 that elides the convoy spike
    is exactly the artifact the overload experiment exists to show. So
    this reporter selects each rank exactly from a copy of the full
    sample (quickselect, linear time), and the result is
    bit-reproducible.

    Nearest-rank definition: the q-th percentile of n samples is element
    [max 1 (ceil (q*n))] (1-based) of the sorted array — the smallest
    sample ≥ q of the distribution's mass. p50 of [|1;2;3;4|] is 2,
    p99 of 1000 samples is the 990th. *)

type t = {
  count : int;
  mean : float;
  max : int;
  p50 : int;
  p99 : int;
  p999 : int;
}

val of_samples : int array -> t option
(** [None] on an empty sample; a singleton reports itself everywhere.
    The input is copied, never mutated. *)

val rank : count:int -> float -> int
(** 1-based nearest rank of quantile [q] in a sample of [count]. Raises
    [Invalid_argument] on an empty sample or [q] outside [0,1]. *)

val percentile : int array -> float -> int
(** Exact quantile of an already-sorted (ascending) array. *)

val to_json : t -> Json.t
(** Stable field order: count, mean, max, p50, p99, p999. *)
