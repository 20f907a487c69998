(** Per-core transactional state: read/write sets and the speculative store
    buffer.

    Speculative stores never reach the backing store; they live here at word
    granularity and drain at commit. Loads forward from the buffer. The
    read/write sets are line-granular, mirroring the L1-based tracking of the
    paper's TSX-like baseline. *)

type t

val create : unit -> t

val reset : t -> unit

val active : t -> bool

val start : t -> unit

val read_line : t -> Mem.Addr.line -> unit
(** Add to the read set. *)

val write_line : t -> Mem.Addr.line -> unit

val in_read_set : t -> Mem.Addr.line -> bool

val in_write_set : t -> Mem.Addr.line -> bool

val in_either_set : t -> Mem.Addr.line -> bool

val iter_lines : t -> (Mem.Addr.line -> unit) -> unit
(** Visit every line of the read set then of the write set, without
    allocating; lines in both sets are visited twice, so the callback must
    be idempotent (conflict-map withdrawal is). *)

val footprint : t -> Mem.Addr.line list
(** Union of read and write sets, sorted. *)

val footprint_size : t -> int

val buffer_store : t -> Mem.Addr.t -> int -> unit

val forwarded : t -> Mem.Addr.t -> int option
(** Value a load should see if the address was speculatively written. *)

val load : t -> Mem.Store.t -> Mem.Addr.t -> int
(** The value a speculative load sees: the newest buffered store to the
    address, else memory. Allocates nothing. *)

val store_count : t -> int
(** Dynamic stores buffered (SQ occupancy in failed mode). *)

val drain : t -> Mem.Store.t -> int
(** Write the buffer to memory in program order; returns the number of words
    written. Does not reset the sets. *)
