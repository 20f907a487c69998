(** Static mutability analysis of atomic regions (paper §3, Table 1).

    A region's cacheline footprint is {e immutable} across retries when no
    loaded value flows into an address computation or a conditional branch —
    exactly the property the hardware's indirection bits detect dynamically.
    This module computes it statically with a taint dataflow over the
    mini-ISA body: every load taints its destination with the load's region
    tag, taint propagates through ALU operations, and any tainted register
    used as a base address or branch operand records an indirection.

    When indirections exist, the paper distinguishes {e likely immutable}
    regions (the indirection sources are never written by concurrent atomic
    regions — e.g. bitcoin's wallet array) from {e mutable} ones (the
    indirection is through data the workload updates — e.g. list next
    pointers). Statically this is the emptiness of the intersection between
    the regions feeding indirections and the regions written by any AR of the
    workload (including the region itself). *)

type classification = Immutable | Likely_immutable | Mutable

val classification_name : classification -> string

val anon_region : string
(** ["<anon>"], the normalised tag of untagged loads and stores. *)

val region_name : string -> string
(** Identity on non-empty tags; [anon_region] for [""]. *)

val indirections : Isa.Instr.t array -> string list
(** Region tags of loads whose results reach an address computation or
    branch in the body. Empty when the footprint is statically immutable.
    Untagged loads report as ["<anon>"]. Accepts raw, unvalidated bodies:
    branch and jump targets outside the body contribute no edge. *)

val classify_regions :
  indirections:string list -> written_regions:string list -> classification
(** Classification from a precomputed indirection list (as returned by
    {!indirections}); [classify] is [classify_regions] over the taint
    analysis, and the static verifier feeds it its summary's copy of the
    same list. *)

val classify : ar:Isa.Program.ar -> written_regions:string list -> classification

val classify_workload : Isa.Program.ar list -> (Isa.Program.ar * classification) list
(** Classify every AR against the union of regions written by all ARs of the
    workload. *)

val count : (Isa.Program.ar * classification) list -> int * int * int
(** [(immutable, likely_immutable, mutable)] counts — one Table 1 row. *)
