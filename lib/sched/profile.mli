(** Per-core schedule profiles: the machine's contention shape.

    The paper evaluates CLEAR on symmetric cores with one global
    [think_cycles]; a profile generalises that axis — per-core think-time
    distributions, start-phase offsets, hot-core operation multipliers, and
    a socket latency-asymmetry matrix ({!Mem.Numa}) — while staying pure
    data: a profile contains no closures, so it Marshals (suite-cache
    digests) and compares structurally.

    Determinism contract: every sampling function draws a fixed number of
    values from the caller's {!Simrt.Rng} stream per call (at most one), so
    two runs with equal (config, workload, seed) remain bit-identical
    regardless of job count or cache state. [Default] reproduces the
    pre-profile engine pacing draw-for-draw: the {!symmetric} profile is
    guaranteed to leave every historical golden fingerprint unchanged. *)

type think_dist =
  | Default
      (** the legacy pacing: [base + U[0, base/2]] cycles, where [base] is
          [Machine.Config.think_cycles] *)
  | Const of int  (** exactly this many cycles, no draw *)
  | Uniform of { lo : int; hi : int }  (** [U[lo, hi]], inclusive *)
  | Burst of { lo : int; hi : int; heat : float }
      (** pareto-ish: mass concentrates at [lo] with a heavy tail towards
          [hi]; larger [heat] skews harder. Samples are clamped to
          [[lo, hi]] so bounds stay exact. *)

type t = {
  name : string;
  description : string;
  think : think_dist;  (** pacing for cores not designated hot *)
  hot_cores : int;  (** the first [hot_cores] cores are "hot" *)
  hot_think : think_dist;  (** pacing for hot cores *)
  hot_op_mult : int;  (** hot cores run [hot_op_mult * ops_per_thread] ops *)
  phase_stride : int;  (** core [i]'s first op is delayed by [i * stride] *)
  numa : Mem.Numa.t;  (** socket latency asymmetry; {!Mem.Numa.flat} = none *)
}

val symmetric : t
(** The identity profile: [Default] pacing everywhere, no hot cores, no
    phase stagger, flat latency. Running under [symmetric] is bit-identical
    to the engine before profiles existed. *)

val is_symmetric : t -> bool
(** Structural check that a profile cannot perturb the symmetric machine
    (all-[Default] pacing, multiplier 1, zero stride, flat matrix). *)

val sample_dist : think_dist -> base:int -> Simrt.Rng.t -> int
(** One draw from a distribution directly (at most one value from [rng]).
    [base] only matters for [Default]. This is the sampling kernel behind
    {!sample_think}; the open-system traffic generator reuses the [Burst]
    inverse-power case for bursty interarrival times. *)

val sample_think : t -> core:int -> base:int -> Simrt.Rng.t -> int
(** One op's think time for [core], excluding the workload's per-op
    [extra_think] (the engine adds that separately). Draws at most one
    value from [rng]. *)

val think_bounds : t -> core:int -> base:int -> int * int
(** Inclusive [(min, max)] envelope of {!sample_think} for this core: every
    sample lies within it, for every seed. *)

val start_offset : t -> core:int -> base:int -> Simrt.Rng.t -> int
(** When [core]'s first op becomes runnable:
    [phase_stride * core + U[0, base]]. The uniform jitter term is the
    legacy warm-up draw, kept for all profiles so the symmetric case stays
    bit-identical. Draws exactly one value from [rng]. *)

val ops_for : t -> core:int -> base:int -> int
(** The number of operations [core] runs: [base] ([ops_per_thread]) times
    the hot multiplier when the core is hot. *)

val total_ops : t -> cores:int -> base:int -> int
(** Sum of {!ops_for} over all cores — the run's expected commit count. *)

val validate : t -> string list
(** Structural problems, empty when the profile is usable: negative or
    inverted distribution bounds, negative heat, [hot_cores < 0],
    [hot_op_mult < 1], negative stride, or a malformed NUMA matrix. *)

val dist_name : think_dist -> string
(** Short human form, e.g. ["const(20)"], ["burst(30..600,h1.5)"]. *)
