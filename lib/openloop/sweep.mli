(** The latency-vs-offered-load sweep: a grid of configurations × load
    points, each an independent deterministic simulation.

    Determinism contract: the grid is enumerated in (config, sorted load)
    order and {!Simrt.Pool.parallel_map} preserves it, so the JSON emitted
    from the results is byte-identical at any job count. Nothing host- or
    time-dependent (wall clock, job count) enters {!to_json}. *)

type options = {
  workload : string;  (** registry name; scaled via {!Workloads.Registry.open_scaled} *)
  keys : int;  (** keyed-structure entries — size well past the L3 *)
  theta : float;  (** Zipf popularity skew *)
  loads : float list;  (** offered loads, requests per 1000 cycles *)
  requests : int;  (** requests per load point *)
  process : Machine.Config.open_process;
  queue_cap : int;  (** 0 = unbounded backlog *)
  configs : Machine.Config.t list;  (** base presets; seed/queue applied per point *)
  seed : int;
  jobs : int;
  check : bool;  (** oracle-check each config's lowest load point *)
}

val default_options : options
(** arrayswap over 2^17 slots (8 MiB, twice the L3) at Zipf theta 6 —
    hot-headed enough that conflicts happen despite the huge key space —
    with Poisson arrivals and retries clamped to 1 on both the
    fallback-heavy baseline ("B") and CLEAR ("C"), the pair the overload
    figure contrasts. *)

val run : options -> Driver.t list
(** One {!Driver.run_point} per (config, load) cell, in grid order. Loads
    are de-duplicated and sorted ascending; with [check] set, each config's
    lowest load point runs under the execution oracle. *)

val to_json : options -> Driver.t list -> Report.Json.t
(** The sweep header plus the [curve] array, in grid order. *)

val table : Driver.t list -> Report.Table.t
(** Human-readable curve (sojourn percentiles per row). *)
