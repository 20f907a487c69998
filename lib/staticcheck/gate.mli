(** Static-vs-dynamic soundness gate.

    Created once per checked run from the run's configuration, then fed
    every commit witness and every end-of-discovery decision the engine
    emitted ({!Check.Verdict} drives this). A violation means the abstract
    interpreter under-approximated a real execution — a bug in either the
    analyzer or the engine — and is reported as its own verdict class. *)

type violation =
  | Footprint_escape of {
      ar : string;
      access : [ `Read | `Write ];
      line : Mem.Addr.line;
      bound : string;  (** human-readable description of the violated bound *)
    }
  | Decision_escape of { ar : string; decision : Clear.Decision.mode; envelope : string }
  | Conflict_escape of {
      aggressor : string;
      victim : string;
      line : Mem.Addr.line;
      cover : string;  (** printed static may-conflict cover for the pair *)
    }

type t

val create : ?fault_drop_store:bool -> Predict.params -> t
(** [fault_drop_store] injects an analyzer bug (the first store site of
    every AR is dropped from the may-write set) so tests can prove the gate
    actually fires. *)

val summary : t -> Isa.Program.ar -> Absint.summary
(** Memoised per (ar id, name). *)

val prediction : t -> Isa.Program.ar -> Predict.t

val check_footprint :
  t ->
  ar:Isa.Program.ar ->
  regs:int array ->
  reads:Mem.Addr.line array ->
  n_reads:int ->
  writes:Mem.Addr.line array ->
  n_writes:int ->
  (unit, violation) result
(** Dynamic footprint ⊆ static may-sets, concretised under the witness's
    initial register file [regs] ([Isa.Instr.num_regs] slots; registers
    the operation did not set hold 0, as in the engine). The footprint is
    the first [n_reads] / [n_writes] lines of the arrays, checked in order,
    reads first. The AR's sites are split into the two sets once per AR; a
    passing check allocates nothing. *)

val check_commit :
  t ->
  ar:Isa.Program.ar ->
  init_regs:(Isa.Instr.reg * int) list ->
  reads:Mem.Addr.line list ->
  writes:Mem.Addr.line list ->
  (unit, violation) result
(** {!check_footprint} over lists, the initial registers installed in
    order. *)

val check_decision :
  t -> ar:Isa.Program.ar -> decision:Clear.Decision.mode -> (unit, violation) result

val check_conflict :
  t ->
  ars:Isa.Program.ar list ->
  aggressor:Isa.Program.ar ->
  victim:Isa.Program.ar ->
  line:Mem.Addr.line ->
  (unit, violation) result
(** Every engine-observed conflict event (a doom or a cacheline-lock NACK
    with a known line) must land inside the static may-conflict cover for
    the aggressor/victim AR pair. The {!Conflict.t} matrix is built lazily
    from [ars] (the workload's full region list) on first use and cached. *)

val pp_violation : Format.formatter -> violation -> unit
