(** Regeneration of every table and figure of the paper's evaluation.

    [run_suite] executes all four configurations (B = requester-wins,
    P = PowerTM, C = CLEAR/requester-wins, W = CLEAR/PowerTM) over the
    benchmark set once; the [figN] functions derive the corresponding
    paper artefact from that single suite, so a full reproduction costs one
    sweep. *)

type options = {
  cores : int;
  ops_per_thread : int;
  seeds : int list;
  trim : int;
  retry_choices : int list;
      (** the paper sweeps 1..10 and keeps the best per application *)
  sched : Sched.Profile.t;
      (** schedule shape applied to every configuration of the sweep;
          {!Sched.Profile.symmetric} (the default in every option preset)
          reproduces the paper's machine. The profile is part of each
          simulation's {!Suite_cache} shard key, so sweeps under different
          profiles never share cached results. *)
}

val default_options : options
(** Paper-faithful-ish: 32 cores, 10 seeds trimmed by 3, retries 1..10.
    Expensive. *)

val quick_options : options
(** Minutes-sized: 32 cores, 150 ops, 3 seeds, retries 1/2/4/8. The size
    EXPERIMENTS.md reports. *)

val smoke_options : options
(** Seconds-sized: 4 cores, 40 ops, 2 seeds, retries 2/5; still the full
    4-config x 19-benchmark cross product. The gate's smoke suite. *)

type suite = {
  options : options;
  rows : (string * (string * Run.t) list) list;
      (** per workload, the four presets' measurements keyed by letter *)
}

val run_suite :
  ?jobs:int ->
  ?check:bool ->
  ?cache:bool ->
  ?workloads:Machine.Workload.t list ->
  ?progress:(string -> unit) ->
  options ->
  suite
(** Run the whole sweep as one {!Run.best_of_retries} call over every
    (workload, preset) pair, so its task order is workload, preset, retry,
    seed, and its optional arguments are {!Run.batch}'s: any job count
    yields bit-identical results, [~check:true] validates every simulation
    with the execution oracle (online, {!Check.Stream}) and raises
    {!Run.Check_failed} on the first violation, and [~cache:true] memoises
    each simulation as one {!Suite_cache} shard. [~check:true] ignores
    [~cache]. *)

val preset : string -> Machine.Config.t
(** The bare preset for a letter (B, P, C or W), before any sweep options
    are applied. Raises [Invalid_argument] on any other letter. *)

val config_of_letter : options -> string -> Machine.Config.t

val letters : string list
(** The four preset letters in presentation order: B, P, C, W. *)

(** {1 Artefacts that need no suite} *)

val table1 : unit -> Report.Table.t
(** AR characterisation via the static mutability analysis. *)

val table2 : options -> Report.Table.t
(** System configuration. *)

val storage : unit -> Report.Table.t
(** Per-core storage of the CLEAR structures against the paper's §5 total. *)

val ablation :
  ?jobs:int -> ?check:bool -> ?cache:bool -> ?progress:(string -> unit) -> options -> Report.Table.t
(** CLEAR/rw with one design choice switched off at a time, on mwobject,
    bitcoin and bst, at the preset's own retry limit: one {!Run.batch} of
    its 15 cells, whose optional arguments these are. *)

val sle :
  ?jobs:int -> ?check:bool -> ?cache:bool -> ?progress:(string -> unit) -> options -> Report.Table.t
(** HTM against SLE front-ends under B and W on six benchmarks, each at its
    preset's own retry limit: one {!Run.batch} of its 24 cells, whose
    optional arguments these are. *)

(** {1 Figures derived from a suite} *)

val fig1 : suite -> Report.Table.t
(** Ratio of first-retry ARs with a stable ≤ ALT footprint (measured on the
    baseline configuration). *)

val fig8 : suite -> Report.Table.t
(** Normalised execution time. *)

val fig8_discovery : suite -> Report.Table.t
(** Companion to Figure 8: share of time spent running aborted
    discoveries. *)

val fig9 : suite -> Report.Table.t
(** Aborts per committed transaction. *)

val fig10 : suite -> Report.Table.t
(** Normalised energy. *)

val fig11 : suite -> Report.Table.t
(** Abort breakdown per type (per committed transaction). *)

val fig12 : suite -> Report.Table.t
(** Commit breakdown per execution mode. *)

val fig13 : suite -> Report.Table.t
(** Commit breakdown per retry count (excluding 0-retry commits). *)

val headline : suite -> Report.Table.t
(** The abstract's headline numbers, paper vs. measured. *)
