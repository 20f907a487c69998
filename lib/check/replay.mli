(** Sequential replay oracle.

    Re-executes every committed atomic region single-threaded, in commit
    order, on a private copy of the initial memory image — interleaving the
    drivers' non-transactional writes at their recorded positions — and
    demands the result match the concurrent simulation twice over:

    - {b per-witness}: each replayed AR must produce exactly the store log
      the simulated attempt drained into memory (address-for-address,
      value-for-value, in program order). A mismatch pinpoints the guilty
      witness.
    - {b whole-image}: the final replayed memory must be bit-identical to
      the simulated final memory. This backstop catches corruption the store
      logs cannot localise (e.g. a stray direct write between commits).

    If commit order is serializable (see {!Serial}) and replay passes, the
    concurrent execution is observationally equivalent to running every
    committed AR back-to-back — the strongest statement the oracle makes. *)

type divergence =
  | Store_mismatch of {
      witness : Witness.header;
      index : int;  (** position in the store log *)
      expected : (Mem.Addr.t * int) option;  (** simulated entry, if any *)
      got : (Mem.Addr.t * int) option;  (** replayed entry, if any *)
    }
  | Memory_mismatch of {
      addr : Mem.Addr.t;  (** first differing word *)
      replayed : int;
      simulated : int;
      differing : int;  (** total differing words *)
    }
  | Replay_error of { witness : Witness.header; message : string }
      (** The re-executed body faulted (out-of-range access, runaway loop). *)

val pp_divergence : Format.formatter -> divergence -> unit

(** {1 Windowed cursor}

    The incremental face of the oracle, used by {!Stream}: each committed
    prefix is replayed into the replayed memory and discarded, so an online
    checker never carries the witness history. *)

type cursor

val start : initial:Mem.Store.image -> cursor
(** A fresh replay store built from [initial] (COW — shares every untouched
    chunk with the simulation's store): O(touched words). *)

val attach : Mem.Store.t -> cursor
(** Replay on the simulation's live store: the replayed memory is the store
    itself except at the words where they differ, which an observer
    installed on the store ({!Mem.Store.set_observer}) files as the
    simulation changes them and replayed writes clear. That set spans only
    the writes not yet replayed, so the cursor holds O(in-flight writes)
    and reads memory the simulation has just touched. Must be called before
    the first simulated cycle; {!finish} then takes the store's final
    snapshot. *)

val step : cursor -> Capbuf.t -> (unit, divergence) result
(** Replay one committed witness (a borrowed view), in commit order,
    folding its stores into the rolling store and comparing each against
    the simulated log as it executes. Allocates nothing on success. After
    an [Error] the cursor is dead — report and stop. *)

val apply_driver_writes : cursor -> (Mem.Addr.t * int) list -> unit
(** Apply a driver's non-transactional writes at their recorded stream
    position. *)

val finish : cursor -> final:Mem.Store.image -> (unit, divergence) result
(** Whole-image backstop: the replayed memory must be bit-identical to the
    simulated final memory. *)

val run :
  initial:Mem.Store.image ->
  entries:Collector.entry list ->
  final:Mem.Store.image ->
  (unit, divergence) result
(** [run ~initial ~entries ~final] replays [entries] on a store built from
    [initial] and compares against [final] — {!start}/{!step}/{!finish}
    over a complete per-run entry list. Both images share untouched
    chunks with the simulation's store, so the whole-image comparison costs
    O(words actually written) rather than O(memory size). *)
