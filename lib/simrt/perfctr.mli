(** Hot-path performance counters.

    Unlike {!Counter} (string-keyed, hashtable-backed, part of the
    simulation's statistics), a [Perfctr.t] is a flat record of mutable
    ints the engine bumps directly on its per-event datapath — cheap enough
    to stay on even in production runs, and deliberately {e outside} the
    simulated statistics so enabling or extending it can never perturb
    simulation output. [bench/e2e] reports it per workload ([perfctr.*],
    [engine.events]) to keep the datapath costs measured across changes. *)

type t = {
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
  mutable check_live_lines : int;
      (** streaming-oracle live-line high-water mark (lines still holding
          checker state; 0 for unchecked or post hoc-checked runs) *)
  mutable check_retired : int;
      (** checker entries retired by the streaming oracle's committed
          frontier (see DESIGN.md §14) *)
}

val create : unit -> t

val merge_into : dst:t -> t -> unit
(** Counters add; [check_live_lines] takes the maximum. *)
