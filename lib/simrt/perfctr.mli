(** Hot-path performance counters.

    Unlike {!Counter} (string-keyed, hashtable-backed, part of the
    simulation's statistics), a [Perfctr.t] is a flat record of mutable
    ints the engine bumps directly on its per-event datapath — cheap enough
    to stay on even in production runs, and deliberately {e outside} the
    simulated statistics so enabling or extending it can never perturb
    simulation output. Dumped by [bench/main.exe --perf] and recorded in
    BENCH_suite.json to keep the datapath costs measured across PRs. *)

type t = {
  mutable sims : int;  (** simulations aggregated into this record *)
  mutable events_popped : int;  (** event-queue pops (engine main loop) *)
  mutable conflict_checks : int;  (** conflict-map mask queries *)
  mutable conflict_hits : int;  (** queries returning a non-empty victim mask *)
  mutable footprint_inserts : int;  (** per-attempt footprint line touches *)
  mutable store_forward_scans : int;  (** store-buffer lookups by loads *)
  mutable aborts : int;
  mutable commits : int;
  mutable allocated_words : int;
      (** OCaml words allocated on the minor heap during [Engine.run] (blocks
          too large for it, such as page copies, are not counted) *)
  mutable pdes_windows : int;  (** lookahead bursts executed by the PDES driver *)
  mutable pdes_window_stalls : int;
      (** extension attempts cut short: an ineligible peer, an unresolvable
          footprint, or a dynamic pre-check (conflict mask, mode change) *)
  mutable pdes_merge_events : int;  (** events executed by the global merged selection *)
  mutable pdes_ext_events : int;
      (** events executed past the dynamic next-event bound, i.e. justified
          only by the static-footprint insulation argument *)
  mutable pdes_lookahead_total : int;  (** summed per-burst lookahead distance (cycles) *)
  mutable pdes_lookahead_max : int;  (** largest single-burst lookahead (cycles) *)
  mutable static_cover_exact : int;
      (** PDES footprint resolutions where the exact line set enumerated *)
  mutable static_cover_cover : int;
      (** footprint resolutions that fell back to a line-interval cover
          small enough to expand (cap hit or region-bounded indirection) *)
  mutable static_cover_capped : int;
      (** resolutions where exact enumeration hit the expansion cap — the
          formerly silent [Footprint.lines_for] failure mode, now counted *)
  mutable static_cover_unresolved : int;
      (** resolutions with no usable footprint: an unbounded site, or a
          cover too large to expand (pool-sized region extents) *)
  mutable open_arrivals : int;
      (** open-system requests admitted to the queue (excludes drops) *)
  mutable open_dropped : int;  (** requests dropped at saturation (queue cap hit) *)
  mutable open_completed : int;  (** requests that committed their AR *)
  mutable open_qdepth_hw : int;  (** queue-depth high-water mark *)
  mutable check_live_lines : int;
      (** streaming-oracle live-line high-water mark (lines still holding
          checker state; 0 for unchecked or post hoc-checked runs) *)
  mutable check_retired : int;
      (** checker entries retired by the streaming oracle's committed
          frontier (see DESIGN.md §14) *)
}

val create : unit -> t

val reset : t -> unit

val merge_into : dst:t -> t -> unit
(** Counters add; [pdes_lookahead_max], [open_qdepth_hw] and
    [check_live_lines] take the maximum. *)

val mean_lookahead : t -> float
(** [pdes_lookahead_total / pdes_windows]; 0 when no window ran. *)

val to_list : t -> (string * int) list
(** Stable name/value pairs for reporting. *)
