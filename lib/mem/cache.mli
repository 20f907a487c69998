(** Set-associative cache tag store with LRU replacement.

    Only tags are modelled — data always lives in the backing {!Store} — but
    presence/absence drives access latency, capacity-based HTM aborts and the
    ALT lockability test (can the L1 simultaneously hold all lines of an
    atomic region?). *)

type t

val create : sets:int -> ways:int -> t
(** [sets] must be a power of two. *)

val sets : t -> int

val ways : t -> int

val mem : t -> Addr.line -> bool
(** Is the line present? Does not update LRU. *)

val touch : t -> Addr.line -> bool
(** Look up the line and refresh its LRU position. Returns whether it hit. *)

val insert : t -> Addr.line -> Addr.line
(** Bring the line in (MRU position). Returns the evicted victim when the set
    was full and the line was not already present, -1 otherwise. *)

val fill : t -> Addr.line -> bool
(** {!insert} for a caller that drops the victim: returns whether the line
    was already present, i.e. {!touch}'s answer, in the same single pass
    over the set. *)

val invalidate : t -> Addr.line -> bool
(** Drop the line; returns whether it was present. *)

val lines_in_set_of : t -> Addr.line -> int
(** Occupancy of the set that [line] maps to. *)

val would_fit : t -> Addr.line list -> bool
(** Could all these (distinct) lines reside in the cache simultaneously, i.e.
    does no set receive more lines than it has ways? This is the discovery
    "can we lock the whole footprint" test. *)

val iter : t -> (Addr.line -> unit) -> unit
(** Every resident line, in (set, way) order. *)

val clear : t -> unit
