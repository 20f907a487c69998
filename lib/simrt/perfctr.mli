(** Hot-path performance counters.

    Unlike {!Counter} (string-keyed, hashtable-backed, part of the
    simulation's statistics), a [Perfctr.t] is a flat record of mutable
    ints the engine bumps directly on its per-event datapath — cheap enough
    to stay on even in production runs, and deliberately {e outside} the
    simulated statistics so enabling or extending it can never perturb
    simulation output. [bench/e2e] reports it per workload ([perfctr.*],
    [engine.events]) to keep the datapath costs measured across changes. *)

type t = {
  mutable sims : int;  (** simulations aggregated into this record *)
  mutable events_popped : int;
      (** simulated events stepped: one per core, also when the engine
          main loop re-parks a run of idle cores in one iteration *)
  mutable conflict_checks : int;  (** conflict-map mask queries *)
  mutable conflict_hits : int;  (** queries returning a non-empty victim mask *)
  mutable footprint_inserts : int;  (** per-attempt footprint line touches *)
  mutable store_forward_scans : int;  (** store-buffer lookups by loads *)
  mutable aborts : int;
  mutable commits : int;
  mutable allocated_words : int;
      (** OCaml words allocated on the minor heap during [Engine.run] (blocks
          too large for it, such as page copies, are not counted) *)
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

val merge_into : dst:t -> t -> unit
(** Counters add; [open_qdepth_hw] and [check_live_lines] take the
    maximum. *)
