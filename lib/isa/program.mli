(** Atomic-region containers.

    An {!ar} is one atomic region: a named, validated mini-ISA body. Its
    [id] plays the role of the region's program counter — it is the key the
    ERT uses to recognise re-invocations of the same region. *)

type ar = private {
  id : int;
  name : string;
  body : Instr.t array;
  regions : (string * (int * int)) list;
      (** region name -> inclusive word extent [(lo, hi)] of every address
          the workload's layout allocated under that tag; sorted, duplicate
          free. The static verifier bounds indirection-lost sites by their
          region's extent (DESIGN.md §15); empty when the workload declares
          no extents, in which case such sites stay unbounded. *)
}

val make_ar : ?regions:(string * (int * int)) list -> id:int -> name:string -> Instr.t array -> ar
(** Validates the body; raises [Invalid_argument] if ill-formed or if an
    extent is empty or negative. *)

val build_ar : ?regions:(string * (int * int)) list -> id:int -> name:string -> (Asm.t -> unit) -> ar
(** Convenience: run the builder function on a fresh assembler buffer. *)

val instruction_count : ar -> int

val store_count : ar -> int
(** Static number of store instructions in the body (not dynamic). *)

val regions_written : ar -> string list
(** Region tags of all stores, deduplicated, sorted. *)

val regions_read : ar -> string list

val pp : Format.formatter -> ar -> unit
