(** Pooled per-core witness-capture buffer, and the borrowed witness view.

    A [Capbuf.t] is a handful of flat int arrays owned by one core and
    reused across every attempt and request of a run: recording an access
    writes two ints, and {!reset} just zeroes the lengths. At commit the
    collector {!seal}s the buffer — stamps the commit header and sorts the
    footprint by line in place — and hands the sink the buffer itself as a
    borrowed view of the witness.

    {b Borrowing contract.} A view is valid only during the sink callback
    that receives it: the engine resets the buffer when the core starts its
    next attempt. A consumer that needs anything past the callback copies
    it — {!to_witness} for the whole witness, {!header} for a report, or
    ints into its own state. Nothing is allocated to hand a witness over.

    Capture stays observation-only: recording touches no simulation state,
    so checked statistics are bit-identical to unchecked ones, and a sealed
    view lists the footprint sorted by line — the {!Witness.t} order the
    oracles have always consumed. *)

type t

val create : unit -> t

(** {1 Capture} *)

val note_read : t -> line:Mem.Addr.line -> time:int -> unit
(** First access wins: later reads of a recorded line are ignored, so the
    stored cycle is the line's first-read time. O(footprint) scan — cheaper
    than hashing at attempt-footprint sizes, and allocation-free. *)

val note_write : t -> line:Mem.Addr.line -> time:int -> unit

val note_store : t -> addr:Mem.Addr.t -> value:int -> unit
(** Appends; the store log keeps program order and duplicates. *)

val reset : t -> unit
(** O(1); keeps the arrays for the next attempt. *)

val seal :
  t ->
  seq:int ->
  time:int ->
  core:int ->
  ar:Isa.Program.ar ->
  init_regs:(Isa.Instr.reg * int) list ->
  mode:Witness.mode ->
  retries:int ->
  unit
(** Stamp the commit header and sort reads and writes by line, in place and
    without allocating. *)

val load : t -> Witness.t -> unit
(** Refill the buffer from a retained witness — header, footprint and store
    log in list order — so retained histories feed the same view-consuming
    oracles. *)

(** {1 The borrowed view} *)

val seq : t -> int

val time : t -> int

val core : t -> int

val ar : t -> Isa.Program.ar

val fill_regs : t -> int array -> unit
(** Load the initial register file: every register zero, then the initial
    registers installed in order, as the engine's [Regfile.load_initial]
    does. Allocates nothing. *)

val mode : t -> Witness.mode

val retries : t -> int

val n_reads : t -> int

val read_line : t -> int -> Mem.Addr.line
(** [read_line t i], [0 <= i < n_reads t]; sorted by line once sealed. *)

val read_time : t -> int -> int

val n_writes : t -> int

val write_line : t -> int -> Mem.Addr.line

val visibility : t -> int -> int
(** Of write [i]: commit time for buffered modes, first-write time for
    direct modes ({!Witness.visibility}). *)

val read_lines : t -> Mem.Addr.line array
(** The backing array of read lines; only the first {!n_reads} are
    meaningful, and only during the borrow. *)

val write_lines : t -> Mem.Addr.line array

val n_stores : t -> int

val store_addr : t -> int -> Mem.Addr.t
(** [store_addr t i], [0 <= i < n_stores t], program order. *)

val store_value : t -> int -> int

(** {1 Copies} *)

val header : t -> Witness.header

val to_witness : t -> Witness.t

val reads : t -> (Mem.Addr.line * int) list
(** Sorted by line (unique), the {!Witness.t} convention. *)

val writes : t -> (Mem.Addr.line * int) list

val stores : t -> (Mem.Addr.t * int) list
(** In program order. *)
