(** Static pairwise AR may-conflict matrix.

    For every ordered pair of a workload's atomic regions, a sound
    line-interval cover of the cache lines on which simultaneous attempts
    can conflict (doom each other, or NACK against a cacheline lock). A
    conflict needs one side to hold the line exclusively — a speculative or
    fallback write, or {e any} footprint line while running under cacheline
    locking — while the other side touches it at all, so with [X] the
    exclusive set and [RW] the full footprint cover:

    {[ may_conflict a b = (X_a ∩ RW_b) ∪ (RW_a ∩ X_b) ]}

    [X = RW] when the region is CL-capable (its decision envelope admits
    NS-CL or S-CL), else [X = W]. Sites the interval domain lost are bounded
    by their region tag's declared extent where one exists; otherwise the
    cover degrades to [Top] (conflict anywhere — trivially sound). The
    dynamic gate ({!Gate.check_conflict}) validates the matrix on every
    checked run: each observed conflict event's line must lie in the static
    cover for the aggressor/victim AR pair. *)

type cover =
  | Top  (** any line — the analysis could not bound the pair *)
  | Spans of (int * int) array  (** sorted, disjoint, inclusive line intervals *)

val mem : cover -> int -> bool
(** Is [line] inside the cover? *)

val cover_lines : cover -> int option
(** Total lines covered; [None] for [Top]. *)

type ar_info = {
  id : int;
  name : string;
  rw : cover;  (** lines any attempt may read or write *)
  w : cover;  (** lines any attempt may write *)
  x : cover;  (** exclusive set: [rw] when CL-capable, else [w] *)
  cl_capable : bool;  (** envelope admits NS-CL or S-CL *)
}

type t

val of_ars : ?params:Predict.params -> Isa.Program.ar list -> t
(** Analyze each region and build the full matrix. [params] feeds the
    decision-envelope prediction that decides CL-capability. *)

val ars : t -> ar_info array
(** In input order. *)

val may_conflict : t -> int -> int -> cover

val may_conflict_ids : t -> ida:int -> idb:int -> cover option
(** Matrix lookup by AR ids; [None] when either id is unknown. *)

val cover_to_string : cover -> string
