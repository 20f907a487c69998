(** Memory-system geometry and latencies (paper Table 2).

    The simulated hierarchy mirrors the paper's Icelake-like configuration:
    48 KiB 12-way L1D, 512 KiB 8-way L2, 4 MiB 16-way shared L3, MESI
    directory with generous coverage, 80-cycle memory. Latencies are additive:
    an L2 hit costs [l1_hit + l2_hit] and so on, which matches how gem5
    reports access latency for lookups that traverse the hierarchy. *)

type t = {
  l1_sets : int;
  l1_ways : int;
  l2_sets : int;
  l2_ways : int;
  l3_sets : int;
  l3_ways : int;
  dir_sets : int;  (** sets of the directory cache; defines the
                       lexicographical locking order of the ALT *)
  l1_hit : int;  (** cycles *)
  l2_hit : int;
  l3_hit : int;
  memory : int;
  remote_transfer : int;
      (** extra cycles to fetch a line owned modified by a remote L1 *)
  coherence_msg : int;  (** cycles for one directory message hop *)
}

val icelake_like : t
(** The paper's Table 2 configuration. *)

val tiny : t
(** A miniature hierarchy for fast unit tests (few sets/ways, same
    latencies). *)

val dir_set_of : t -> Addr.line -> int
(** Directory set index of a line — the lexicographical locking key. *)

val load_latency : t -> level:[ `L1 | `L2 | `L3 | `Mem ] -> int
(** Total access latency when the first hit is at [level]. *)
