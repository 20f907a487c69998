(** Static prediction of CLEAR table pressure and the decision envelope.

    From an {!Absint.summary} and the machine's table geometry, [predict]
    derives ALT / SQ / L1-associativity / CRT / window fits and the sound
    {e decision envelope}: the set of {!Clear.Decision.mode} outcomes any
    end-of-discovery assessment may produce on any run of the region. The
    soundness gate ({!Gate}) asserts every dynamic decision lies inside it. *)

type params = {
  alt_capacity : int;
  sq_entries : int;
  rob_entries : int;
  l1_sets : int;
  l1_ways : int;
  crt_entries : int;
  crt_ways : int;
  dir_sets : int;
}

val params_of :
  alt_capacity:int ->
  sq_entries:int ->
  rob_entries:int ->
  crt_entries:int ->
  crt_ways:int ->
  Mem.Params.t ->
  params

val default_params : params
(** The paper's geometry: 32-entry ALT, 72-entry SQ, 352-entry ROB,
    64-entry 8-way CRT over icelake-like caches. *)

type fit = Fits | May_overflow

val fit_name : fit -> string

type envelope = {
  ns_cl : bool;
  s_cl : bool;
  spec_retry : bool;
  fallback_only : bool;
      (** every completed discovery overflows the SQ: the region can only
          commit speculatively or via the fallback lock *)
}

type t = {
  summary : Absint.summary;
  classification : Clear.Analysis.classification;
      (** Table-1 class, from the summary's {!Clear.Analysis.indirections} *)
  alt_fit : fit;
  sq_fit : fit;
  lock_fit : fit;  (** L1 associativity admits locking the whole footprint *)
  crt_fit : fit;
  window_fit : fit;
  lock_groups : int option;  (** distinct directory sets, when fully concrete *)
  envelope : envelope;
}

val predict : ?params:params -> written_regions:string list -> Absint.summary -> t
(** [written_regions] is the union over the workload's ARs
    ({!Isa.Program.regions_written}), as in Table 1. *)

val decision_in_envelope : envelope -> Clear.Decision.mode -> bool

val envelope_name : envelope -> string
