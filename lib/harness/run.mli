(** Multi-seed measurement of one (configuration, workload) pair.

    Follows the paper's protocol: run with several seeds, report the trimmed
    mean after removing the farthest outliers.

    The unit of work throughout the harness is a single {!sim} — one
    (configuration, workload, seed) simulation. Each simulation builds its own
    store/hierarchy/stats and draws from its own seeded RNG, so any set of
    sims can run concurrently (e.g. via {!Simrt.Pool}) and aggregate to
    bit-identical results as long as the per-seed order handed to
    {!of_stats} is preserved. *)

type t = {
  workload : string;
  preset : string;  (** "B" | "P" | "C" | "W" *)
  retries : int;  (** the retry limit the measurement used *)
  cycles : float;
  energy : float;
  aborts_per_commit : float;
  discovery_fraction : float;
      (** share of total time spent executing aborted discoveries *)
  abort_categories : (Machine.Abort.category * float) list;
      (** mean aborts per committed transaction, by category *)
  commit_mode_fractions : (Machine.Stats.commit_mode * float) list;
  first_try_ratio : float;
  single_retry_ratio : float;
  fallback_ratio : float;
  retry_breakdown : float * float * float;
      (** among retried commits: one retry / several / fallback *)
  fig1_ratio : float;
}

(** {1 Single-simulation unit of work} *)

type sim = { cfg : Machine.Config.t; workload : Machine.Workload.t; seed : int }
(** One independent simulation. *)

val sims : Machine.Config.t -> Machine.Workload.t -> seeds:int list -> sim list
(** The per-seed task list of one (configuration, workload) pair, in seed
    order. *)

val run_sim : sim -> Machine.Stats.t
(** Run one simulation to completion. Pure with respect to global state:
    safe to call from several domains at once. *)

exception Check_failed of string
(** Raised by checked runs when an oracle fails; the payload identifies the
    (workload, preset, seed) triple and contains the full verdict report. *)

val static_gate_of_config : Machine.Config.t -> Staticcheck.Gate.t
(** A static soundness gate matching the configuration's table geometry
    (ALT/SQ/ROB/CRT sizes and cache parameters). *)

val run_sim_checked : ?stream:bool -> sim -> Machine.Stats.t * Check.Verdict.t
(** Run one simulation with witness capture and evaluate all four oracles
    (serializability, sequential replay, lock safety, static soundness
    gate) on the result. The stats are bit-identical to {!run_sim}'s.
    With [~stream:true] the oracles run online against {!Check.Stream} —
    state retires behind the committed frontier and no witness is retained,
    so checker memory follows the live lines instead of the history; the
    verdict is identical either way (DESIGN.md §14). *)

val run_sim_enforce : ?stream:bool -> sim -> Machine.Stats.t
(** Like {!run_sim} but raises {!Check_failed} unless the verdict is clean.
    Drop-in replacement for {!run_sim} in pool task lists. *)

val runner : ?stream:bool -> check:bool -> sim -> Machine.Stats.t
(** {!run_sim_enforce} when [check], {!run_sim} otherwise. *)

val of_stats : Machine.Config.t -> Machine.Workload.t -> trim:int -> Machine.Stats.t list -> t
(** Aggregate per-seed runs (in seed order) into a measurement. *)

val best : t list -> t
(** The candidate with the fewest cycles; earliest wins ties. Raises
    [Invalid_argument] on an empty list. *)

(** {1 Measurements} *)

val measure :
  ?jobs:int ->
  ?check:bool ->
  Machine.Config.t ->
  Machine.Workload.t ->
  seeds:int list ->
  trim:int ->
  t
(** One measurement at the configuration's own retry limit, running the
    per-seed simulations on [jobs] domains (default 1 = inline). With
    [~check:true] every simulation is validated by the execution oracle;
    a violation raises {!Check_failed} out of the pool. *)

val measure_best_retries :
  ?jobs:int ->
  ?check:bool ->
  Machine.Config.t ->
  Machine.Workload.t ->
  seeds:int list ->
  trim:int ->
  retry_choices:int list ->
  t
(** The paper's methodology: sweep the retry limit and keep the
    best-performing setting for this (configuration, application) pair.
    The whole retry-choice x seed cross-product is one flat task list. *)
