(** Bump allocator for laying out a workload's shared data structures.

    Layout happens when the workload value is constructed (it is a pure
    function of the workload parameters), so AR bodies can embed the
    resulting addresses as immediates; [setup] later fills the same addresses
    with initial data. Line-aligned allocation is the default — a node per
    cacheline — because conflict detection, cacheline locking and the ALT all
    work at line granularity and false sharing would blur every experiment
    (the mwobject benchmark, which targets intra-line sharing, asks for
    packed allocation explicitly).

    Allocations may carry a [?region] tag matching the region strings on the
    AR bodies' loads and stores. The allocator records, per region name, the
    inclusive word extent spanning every allocation so tagged; workloads pass
    the resulting table to {!Isa.Program.build_ar} so the static verifier can
    bound indirection-lost sites by their region's extent (DESIGN.md §15).
    The extent is the convex hull of the tagged allocations — a sound
    over-approximation even when other data is interleaved between them.

    Cost: every workload is laid out when the program starts, so an
    allocation must be cheap. Each one bumps a pointer. A tagged one then
    widens its region's extent in place: under the same tag as the span
    widened just before it, that is an [Int.min] and an [Int.max] with no
    hashing and no allocation; under another tag it adds one table lookup,
    and a region's first span one small record. *)

type t

val create : ?base:Mem.Addr.t -> unit -> t
(** Allocation starts at [base] (default: word 64, keeping line 0 clear for
    the conceptual fallback-lock line). *)

val alloc_line : ?region:string -> t -> Mem.Addr.t
(** One fresh cacheline; returns its first word address. *)

val alloc_lines : ?region:string -> t -> int -> Mem.Addr.t
(** [n] consecutive cachelines. *)

val alloc_words : ?region:string -> t -> int -> Mem.Addr.t
(** Packed words, no alignment. *)

val note_span : t -> region:string -> lo:int -> hi:int -> unit
(** Widen [region]'s extent to include the inclusive word span [lo, hi].
    Used when a region's pointer-chasing sites may also touch lines
    allocated under another tag (e.g. a chain-walk load whose first
    iteration dereferences the bucket-head line). *)

val used_words : t -> int
(** High-water mark, for sizing the backing store. *)

val extents : t -> (string * (int * int)) list
(** All recorded region extents as [(region, (lo_word, hi_word))], sorted by
    region name — the shape {!Isa.Program.make_ar} expects. *)

val extent : t -> string -> (int * int) option
