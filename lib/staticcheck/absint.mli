(** Abstract interpreter over mini-ISA bodies (DESIGN.md §10).

    [analyze] runs a widening/narrowing interval+taint fixpoint over an AR
    body and produces a {!summary}: sound over-approximations of the lines
    any single attempt may read or write, execution-count bounds, the
    taint-derived indirection regions (bit-for-bit identical to
    {!Clear.Analysis.indirections} — same reachability, same transfer, same
    collection points), and a must-indirection flag that under-approximates
    the engine's dynamic taint tracking from below. *)

type bound = Finite of int | Unbounded

val bound_le : bound -> int -> bool

val pp_bound : Format.formatter -> bound -> unit

val bound_to_string : bound -> string

type component =
  | Cwords of { lo : int; hi : int }  (** absolute word addresses in [lo, hi] *)
  | Crel of { reg : Isa.Instr.reg; lo : int; hi : int }
      (** word addresses in [init(reg) + lo, init(reg) + hi] *)
  | Cregion of { lo : int; hi : int; region : string }
      (** indirection-lost site bounded by its region tag's declared word
          extent [lo, hi] (from {!Isa.Program.ar} [regions]); sound as long
          as tagged accesses stay inside their region, which the dynamic
          gate verifies on every checked run *)
  | Cany  (** statically unbounded *)

type site = {
  index : int;  (** instruction index of the load/store *)
  written : bool;
  region : string;  (** normalised region tag ({!Clear.Analysis.anon_region} when empty) *)
  component : component;
  in_cycle : bool;  (** the site sits on a CFG cycle and may re-execute *)
}

type summary = {
  name : string;
  body : Isa.Instr.t array;
  regions : (string * (int * int)) list;  (** region extent table the sites were built against *)
  reachable : bool array;
  in_cycle : bool array;
  in_states : Value.t array array;  (** narrowed per-register state before each instruction *)
  sites : site list;  (** reachable memory sites, by index *)
  read_lines : bound;  (** distinct lines one attempt may read *)
  write_lines : bound;
  footprint_lines : bound;  (** distinct lines one attempt may touch *)
  store_execs : bound;  (** store instructions one attempt may execute *)
  min_store_execs : int;  (** fewest stores on any entry-to-Halt path; [max_int] if no Halt *)
  max_instr_execs : bound;
  indirections : string list;  (** = [Clear.Analysis.indirections] on validated ARs *)
  must_indirect : bool;
      (** every entry-to-Halt path performs an indirection the engine's
          dynamic taint bits are guaranteed to flag *)
  falls_off_end : bool;  (** some reachable path runs past the last instruction *)
}

val analyze : ?name:string -> ?regions:(string * (int * int)) list -> Isa.Instr.t array -> summary
(** Accepts raw (possibly invalid) bodies: out-of-range branch targets
    simply contribute no CFG edge; the lint pass reports them. [regions]
    supplies per-region word extents used to refine indirection-lost sites
    into {!Cregion} components. *)

val analyze_ar : Isa.Program.ar -> summary

val line_bound : site list -> bound
(** Distinct-line bound for an arbitrary site subset (e.g. one region's
    write sites), with the same counting rules the summary bounds use. *)
