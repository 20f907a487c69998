(** Architectural register file with CLEAR indirection bits. *)

type t

val create : unit -> t
(** [Isa.Instr.num_regs] registers, zeroed, no indirection bits. *)

val reset : t -> unit

val load_initial : t -> (Isa.Instr.reg * int) list -> unit
(** Reset then install the operation's initial register values. Initial
    values come from outside the atomic region, so they carry no indirection
    bit. *)

val get : t -> Isa.Instr.reg -> int

val set : t -> Isa.Instr.reg -> int -> unit
(** Raw write; does not touch indirection bits (use the [define_*]
    helpers). *)

val operand : t -> Isa.Instr.operand -> int

val indirection : t -> Clear.Indirection.t
(** The underlying bit vector, for discovery checks. *)

val define_alu : t -> dst:Isa.Instr.reg -> Isa.Instr.operand -> Isa.Instr.operand -> int -> unit
(** Write an ALU result from two source operands: indirection = OR of their
    register bits. A move passes its one source twice. *)

val define_load : t -> dst:Isa.Instr.reg -> int -> unit
(** Write a load result: indirection bit set. *)

val operand_tainted : t -> Isa.Instr.operand -> bool
