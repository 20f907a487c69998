(** The scheduler scenario sweep: every registered {!Sched.Scenarios}
    scenario × the four presets × seeds 3, 5 and 7, aggregated per (scenario,
    preset) and compared against the symmetric baseline. Backs
    [clear_sim sched] and the sched gate of [bench/main.exe gate].

    Deterministic per options at any job count: the task list is
    enumerated in (scenario, preset, seed) order and {!Run.batch} preserves
    it. *)

type options = {
  workload : Machine.Workload.t;
  cores : int;
  ops : int;  (** operations per thread *)
  retries : int;  (** retry limit before fallback *)
}

val default_options : options
(** stack, 8 cores, 80 ops per thread, 4 retries. *)

val material_delta : float
(** A scenario materially shifts the retry economics when its one-retry or
    fallback share moves by at least this much (absolute) versus the
    symmetric baseline under the same preset: 0.05. *)

type cell = {
  cycles : float;
  aborts_per_commit : float;
  one_retry : float;
  n_retry : float;
  fallback : float;
  numa_adder_cycles : float;
  material : bool;  (** shifted by at least {!material_delta} *)
}
(** Seed means for one (scenario, preset). *)

type t = {
  options : options;
  checked : bool;
  runs : ((string * string * int) * Machine.Stats.t) list;
      (** every (scenario, preset, seed) simulation, in task order *)
  scenarios : (string * (string * cell) list) list;
      (** per scenario in registry order, the cells keyed by preset letter *)
  materially_different : int;
      (** non-symmetric scenarios with at least one material cell *)
}

val run : jobs:int -> check:bool -> options -> t
(** One {!Run.batch} over every (scenario, preset, seed) simulation. Raises
    {!Run.Check_failed} on the first oracle violation when [check]. *)

val to_json : t -> Report.Json.t

val table : t -> Report.Table.t

val summary : t -> string
(** The one-line count of scenarios that shift the retry mix. *)
