(** The CLEAR decision tree (paper Figure 2).

    After a failed discovery reaches the end of the atomic region, the
    hierarchical assessment below selects how the retry executes. *)

type mode =
  | Ns_cl  (** non-speculative cacheline-locked: success guaranteed *)
  | S_cl  (** speculative cacheline-locked: locks the critical footprint *)
  | Speculative_retry  (** plain HTM retry (baseline behaviour) *)

type assessment = {
  fits_window : bool;
      (** discovery saw the whole region without exhausting core resources
          (ROB/SQ) or overflowing the ALT *)
  lockable : bool;
      (** the learned footprint can be held locked simultaneously (cache
          associativity permits it) *)
  immutable : bool;
      (** no indirection bit reached a memory operation or branch *)
}

val decide : assessment -> mode

val mode_name : mode -> string
