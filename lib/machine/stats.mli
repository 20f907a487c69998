(** Run statistics backing every figure of the evaluation. *)

type commit_mode = Check.Witness.mode = Speculative | Scl | Nscl | Fallback

val all_commit_modes : commit_mode list

type t

val create : unit -> t

val counters : t -> Simrt.Counter.set
(** Low-level event counters (cache hits, coherence messages, ...) shared
    with the memory hierarchy and the energy model. *)

val note_commit : ?ar:int -> t -> mode:commit_mode -> retries:int -> unit
(** [retries] is the number of aborted attempts that preceded the commit;
    [ar] attributes the commit to a static atomic region, by its
    non-negative id ({!Isa.Program.ar}'s [id]). *)

val commits_for_ar : t -> int -> int
(** Commits attributed to the atomic region with this id. *)

val note_abort : t -> Abort.cause -> unit

val note_instr : t -> unit

val note_wasted_instrs : t -> int -> unit
(** [n] instructions executed in an attempt that aborted. *)

val note_failed_discovery_cycles : t -> int -> unit

val note_first_abort : t -> footprint_stable:bool -> unit
(** A dynamic AR invocation aborted its first attempt; [footprint_stable]
    records whether the retry touched exactly the same (≤ ALT capacity)
    lines — the Figure 1 numerator. *)

val set_total_cycles : t -> int -> unit

(** {1 Derived metrics} *)

val commits : t -> int

val commits_in_mode : t -> commit_mode -> int

val aborts : t -> int

val aborts_with_cause : t -> Abort.cause -> int

val aborts_in_category : t -> Abort.category -> int

val aborts_per_commit : t -> float

val total_cycles : t -> int

val failed_discovery_cycles : t -> int

val instrs : t -> int

val wasted_instrs : t -> int

val commits_with_retries : t -> int -> int
(** Non-fallback commits that needed exactly [n] counted retries. *)

val retry_breakdown : t -> float * float * float
(** Among commits that needed at least one retry: fraction committing after
    exactly one retry, after two or more, and in fallback (Figure 13). *)

val first_try_ratio : t -> float
(** Fraction of all commits that succeeded with no retry. *)

val single_retry_ratio : t -> float
(** Fraction of all commits that needed exactly one retry. *)

val fallback_ratio : t -> float

val fig1_ratio : t -> float
(** Of the AR invocations that aborted their first attempt, the fraction
    whose footprint stayed within the ALT and did not change on the retry. *)
