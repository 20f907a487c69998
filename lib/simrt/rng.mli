(** Deterministic pseudo-random number generation.

    The simulator must be reproducible across runs and platforms, so it never
    uses [Stdlib.Random]. This module implements splitmix64, a small, fast,
    high-quality generator with a 64-bit state that supports cheap stream
    splitting — each simulated thread gets its own independent stream derived
    from the run seed. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] makes a fresh generator. Equal seeds give equal streams. *)

val split : t -> int -> t
(** [split t salt] derives an independent stream from [t]'s seed and [salt]
    without disturbing [t]'s own sequence. Used to give each simulated thread
    its own generator. *)

val next_int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] inclusive. Requires
    [lo <= hi]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool
(** Fair coin. *)

val chance : t -> float -> bool
(** [chance t p] is [true] with probability [p] (clamped to [\[0,1\]]). *)


val zipf : t -> n:int -> theta:float -> int
(** [zipf t ~n ~theta] samples from a Zipf-like distribution over
    [\[0, n)] with skew [theta] (0 = uniform; larger = more skewed). Used to
    create hot-spot access patterns in high-contention workloads. *)
