(** Per-register indirection bits (paper §5, Figure 7).

    One bit per physical register. The bit is set when the register is the
    destination of a load, propagates through register-to-register
    operations, and is cleared when the register is overwritten with a value
    that does not derive from any load. When a memory operation or branch
    retires with a set source bit, the atomic region is not immutable. *)

type t

val create : regs:int -> t

val reset : t -> unit
(** Clear every bit (start of an AR attempt: initial registers come from
    outside the region). *)

val get : t -> int -> bool

val assign : t -> int -> bool -> unit
(** Set or clear one bit. *)

val define : t -> dst:int -> srcs:int list -> unit
(** Destination written from the given source registers: the bit becomes the
    OR of the sources' bits (immediates contribute nothing — omit them). *)

val define_load : t -> dst:int -> unit
(** Destination of a load: bit set unconditionally. *)

val any_set : t -> int list -> bool
(** Do any of these source registers carry the indirection bit? Checked when
    memory operations and branches retire. *)

val count_set : t -> int
