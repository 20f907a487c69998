(** Simulated-machine configuration (paper Table 2 plus CLEAR knobs).

    The four named presets correspond to the paper's evaluated
    configurations: requester-wins ([baseline], "B"), PowerTM ([power_tm],
    "P"), CLEAR over requester-wins ([clear_rw], "C") and CLEAR over PowerTM
    ([clear_power], "W").

    Each Table 2 number has one home. The record {!t} holds what a caller
    sets: the core count, the cache hierarchy ({!Mem.Params}), the ROB size
    and the speculation and pacing knobs. The values below are the fixed
    core and HTM parameters. The CLEAR table sizes live with their tables:
    {!Clear.Ert.default_entries}, {!Clear.Alt.default_capacity},
    {!Clear.Crt.default_entries} and {!Clear.Crt.default_ways}. *)

(** {1 Fixed machine parameters} *)

val lq_entries : int
(** 128-entry load queue (printed in Table 2; no model reads it). *)

val sq_entries : int
(** 72-entry store queue: the most buffered stores an attempt holds. *)

val xbegin_cost : int
(** 12 cycles to begin an attempt. *)

val xend_cost : int
(** 12 cycles to commit, before draining the store buffer. *)

val abort_penalty : int
(** 30 cycles of pipeline flush and checkpoint restore. *)

val spin_cycles : int
(** 60 cycles between fallback-lock polls. *)

val think_cycles : int
(** 150 cycles of non-AR work between operations; {!Sched.Profile} draws
    around this base. *)

(** {1 Configuration} *)

type htm_policy = Requester_wins | Power_tm

type frontend =
  | Htm  (** out-of-core speculation: TSX-like transactions, single global
             fallback lock (paper §4.4) *)
  | Sle  (** in-core speculation: lock elision bounded by the ROB/SQ window,
             fallback acquires the region's own lock (paper §4.1/§4.3) *)

type open_process =
  | Open_poisson  (** exponential interarrivals (memoryless) *)
  | Open_burst of { heat : float }
      (** inverse-power interarrivals via {!Sched.Profile}'s [Burst] kernel:
          mass concentrates at 1 cycle with a heavy tail; larger [heat]
          skews burstier at the same mean offered load *)

(** Open-system (request-driven) frontend parameters. Pure data so configs
    keep Marshalling (suite-cache digests compare structurally). *)
type open_queue = {
  open_rate : float;  (** offered load, requests per 1000 cycles (> 0) *)
  open_requests : int;  (** total requests the arrival process generates *)
  open_process : open_process;
  open_queue_cap : int;
      (** max waiting (admitted, undispatched) requests; arrivals beyond it
          are dropped at saturation. [0] = unbounded. *)
}

type t = {
  cores : int;
  mem_params : Mem.Params.t;
  memory_words : int;
  rob_entries : int;
  (* Speculation *)
  frontend : frontend;
  policy : htm_policy;
  max_retries : int;  (** memory-conflict retries before the fallback path *)
  (* CLEAR *)
  clear_enabled : bool;
  failed_mode_discovery : bool;
      (** continue discovery after a conflict (ablation knob; paper §4.1) *)
  use_crt : bool;  (** lock previously-conflicting reads in S-CL (§4.4.2) *)
  crt_decay : bool;
      (** drop a CRT entry once an S-CL that locked it commits; prevents hot
          shared read lines from convoying every later S-CL (ablation knob) *)
  (* Workload pacing *)
  ops_per_thread : int;
  seed : int;
  sched : Sched.Profile.t;
      (** Per-core schedule shape: think-time distributions, hot cores,
          phase offsets and the NUMA latency matrix. The default
          {!Sched.Profile.symmetric} reproduces the legacy single
          {!think_cycles} pacing bit-for-bit. *)
  openloop : open_queue option;
      (** [Some q] switches the engine to the open-system frontend: cores
          pull the next queued request when idle instead of looping
          [ops_per_thread] fixed ops. [None] (all presets) is the classic
          closed loop, bit-identical to before this field existed. *)
  (* Fault injection (testing the execution oracle only) *)
  fault_blind_line : int option;
      (** When set, speculative conflict detection ignores this line entirely:
          accesses to it are neither checked against nor registered in the
          conflict map. This deliberately breaks atomicity — it exists so
          tests can prove the {!Check} oracles catch real bugs. [None] (the
          default) in all presets. *)
  fault_numa_blind : bool;
      (** When [true] and the schedule profile has an asymmetric NUMA matrix,
          speculative conflict detection skips every access whose remote-slice
          latency adder is positive — the cross-socket conflict probe is
          dropped. Like {!fault_blind_line}, this exists only to prove the
          oracles notice; [false] everywhere by default. *)
}

val default : t
(** 32 cores, Icelake-like hierarchy, requester-wins, CLEAR off. *)

val baseline : t

val power_tm : t

val clear_rw : t

val clear_power : t

val with_frontend : t -> frontend -> t
(** Switch speculation front-end, keeping everything else. *)

val preset_letter : t -> string
(** "B", "P", "C" or "W" (best-effort match on policy/clear flags). *)

val with_retries : t -> int -> t

val with_seed : t -> int -> t

val with_openloop : t -> open_queue option -> t
(** Attach (or detach) the open-system frontend. Raises [Invalid_argument]
    on a non-positive rate or request count, a negative queue cap, or
    negative burst heat. *)

val open_process_name : open_process -> string
(** Short human form, e.g. ["poisson"], ["burst(h1.5)"]. *)

val with_sched : t -> Sched.Profile.t -> t
(** Attach a schedule profile. Raises [Invalid_argument] when
    {!Sched.Profile.validate} reports problems. *)

val pp : Format.formatter -> t -> unit
(** Human-readable dump used to print Table 2. *)
