(** Abstract value domain for the static AR verifier (DESIGN.md §10).

    A value is a shape — bottom, constant, initial-register-plus-offset, or
    top — with an interval of offsets. Loads produce [Top]. The domain
    carries no taint: which loaded values reach an address or a branch is
    {!Clear.Analysis.indirections}. Interval bounds saturate at the [inf]
    sentinels, which mean "unbounded on that side" (not a numeric bound). *)

val inf : int
(** Positive-unbounded sentinel (2{^50}); its negation is the negative one.
    Every stored finite bound is strictly smaller in magnitude. *)

type shape = Bot | Const | Init of Isa.Instr.reg | Top

type t = private { shape : shape; lo : int; hi : int }

val bot : t

val top : t

val make : shape -> int -> int -> t
(** Normalising constructor: [Const]/[Init] unbounded on both sides
    collapses to [Top]. *)

val const_ : int -> t

val init_ : Isa.Instr.reg -> t
(** The value register [r] holds on entry. *)

val is_finite : t -> bool
(** True when the shape carries an interval and both bounds are finite. *)

val singleton : t -> int option

val equal : t -> t -> bool

val join : t -> t -> t

val widen : prev:t -> next:t -> t
(** [next] must be [join prev x] for some [x]; still-growing bounds jump to
    the sentinels so fixpoint chains are finite. *)

val binop : Isa.Instr.binop -> t -> t -> t
(** Sound transfer of {!Isa.Instr.eval_binop}; falls back to exact
    evaluation on finite singletons, [Top] otherwise. *)

val refine : Isa.Instr.cond -> t -> t -> t * t
(** Narrow both operands under the assumption the condition holds. Never
    empties an interval (an infeasible refinement returns the operands
    unchanged), so reachability stays identical to {!Clear.Analysis}. *)

val negate_cond : Isa.Instr.cond -> Isa.Instr.cond

val mem : init:(Isa.Instr.reg -> int) -> t -> int -> bool
(** Concretisation membership: does concrete value [x] lie in [v] when the
    initial registers are given by [init]? *)

val pp : Format.formatter -> t -> unit
