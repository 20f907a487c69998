(** Multi-seed measurement of one (configuration, workload) pair.

    Follows the paper's protocol: run with several seeds, report the trimmed
    mean after removing the farthest outliers.

    The unit of work throughout the harness is a single {!sim} — one
    (configuration, workload, seed) simulation. Each simulation builds its own
    store/hierarchy/stats and draws from its own seeded RNG, so any set of
    sims can run concurrently ({!batch}) and aggregate to bit-identical
    results as long as the per-seed order handed to {!of_stats} is
    preserved. *)

type t = {
  workload : string;
  preset : string;  (** "B" | "P" | "C" | "W" *)
  retries : int;  (** the retry limit the measurement used *)
  cycles : float;
  energy : float;
  aborts_per_commit : float;
  discovery_fraction : float;
      (** share of total time spent executing aborted discoveries *)
  abort_categories : (Check.Abort.category * float) list;
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

val predict_params : Machine.Config.t -> Staticcheck.Predict.params
(** The static verifier's view of the configuration's machine: the SQ and
    ROB sizes and the cache parameters. *)

val static_gate_of_config : Machine.Config.t -> Staticcheck.Gate.t
(** A static soundness gate over {!predict_params}. *)

val checked_engine :
  Machine.Config.t -> Machine.Workload.t -> Machine.Engine.t * (unit -> Check.Verdict.t)
(** The one checked-run setup: an engine whose collector feeds every
    emission to a {!Check.Stream} checker with the configuration's static
    gate, and the function that closes that checker on the engine's final
    store once {!Machine.Engine.run} has returned. *)

val run_sim_checked : sim -> Machine.Stats.t * Check.Verdict.t
(** Run one simulation with witness capture and check it with all four
    oracles (serializability, sequential replay, lock safety, static
    soundness gate) online, through {!Check.Stream}: state retires behind
    the committed frontier and no witness is retained, so checker memory
    follows the live lines instead of the history (DESIGN.md §14). The
    stats are bit-identical to {!run_sim}'s. *)

val batch :
  ?jobs:int ->
  ?check:bool ->
  ?cache:bool ->
  ?progress:(string -> unit) ->
  sim list ->
  Machine.Stats.t list
(** Run every simulation on [jobs] domains (default 1 = inline) and return
    their stats in input order, bit-identical at any job count. This is the
    harness's only use of {!Simrt.Pool}. With [~check:true] every
    simulation is validated by the execution oracle and the first violation
    raises {!Check_failed}. With [~cache:true] each simulation is memoised
    as one {!Suite_cache} shard; only missing shards are simulated, hits are
    spliced back in order, and [progress] hears how many hit. [~check:true]
    ignores [~cache]: a shard hit would skip validation. *)

val of_stats : Machine.Config.t -> Machine.Workload.t -> trim:int -> Machine.Stats.t list -> t
(** Aggregate per-seed runs (in seed order) into a measurement. *)

val best : t list -> t
(** The candidate with the fewest cycles; earliest wins ties. Raises
    [Invalid_argument] on an empty list. *)

val best_of_retries :
  ?jobs:int ->
  ?check:bool ->
  ?cache:bool ->
  ?progress:(string -> unit) ->
  ?retry_choices:int list ->
  seeds:int list ->
  trim:int ->
  (Machine.Config.t * Machine.Workload.t) list ->
  t list
(** The paper's methodology, one measurement per (configuration, workload)
    pair in order: each retry limit of [retry_choices] (default: the
    configuration's own) runs over [seeds], {!of_stats} aggregates each
    choice and {!best} keeps the fastest. The whole pair x retry x seed
    cross-product is one {!batch}, enumerated in that order; the optional
    arguments are {!batch}'s. *)
