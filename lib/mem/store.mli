(** Chunked backing store: the simulated machine's physical memory.

    One 63-bit OCaml int per 64-bit word. Workload values fit comfortably;
    addresses stored in memory (pointers) are plain word addresses.

    Memory is organised in 4096-word chunks shared copy-on-write: a fresh
    store aliases one global zero chunk everywhere, and {!snapshot} freezes
    the current chunks into an immutable {!image} in O(chunks) instead of
    copying the whole address space. Untouched chunks stay physically shared
    between a store, its snapshots and stores rebuilt from them, which makes
    snapshot/replay/compare in the execution oracle O(touched words). *)

type t

type image
(** Immutable memory image (cheap snapshot; chunks shared COW). *)

val create : words:int -> t
(** Zero-initialised memory of [words] words. O(words / 4096). *)

val size : t -> int

val read : t -> Addr.t -> int
(** Raises [Invalid_argument] when out of bounds. *)

val write : t -> Addr.t -> int -> unit

val fill : t -> Addr.t -> len:int -> int -> unit
(** [fill t a ~len v] writes [v] to [len] consecutive words from [a]. *)

val snapshot : t -> image
(** Freeze the current contents (execution-oracle capture). The store stays
    usable; later writes clone the affected chunk, never the image. *)

val of_snapshot : image -> t
(** Fresh store initialised from an image (chunks shared until written). *)

val image_words : image -> int

val image_read : image -> Addr.t -> int

val image_of_array : int array -> image
(** Materialise an image from a flat array (tests, hand-built histories). *)

val image_to_array : image -> int array

val image_diff : image -> image -> (Addr.t * int * int * int) option
(** [image_diff a b] is [None] when equal, otherwise
    [Some (first_addr, a_value, b_value, differing_words)]. Physically
    shared chunks are skipped without scanning. Raises [Invalid_argument]
    when the images differ in size. *)

val set_observer : t -> (Addr.t -> int -> unit) option -> unit
(** [set_observer t (Some f)] invokes [f a v] on every {!write} (including
    {!fill}) of [v] to [a], {e before} the word changes — so [read t a] in
    [f] is still the old value — until the observer is replaced. Used by
    the execution oracle to follow the simulation's memory and to witness
    non-transactional stores performed by workload drivers; passing the
    same preallocated option each time allocates nothing. *)

val observer : t -> (Addr.t -> int -> unit) option
