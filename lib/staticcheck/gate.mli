(** Static-vs-dynamic soundness gate.

    A {!t} holds the run's table geometry. When the engine hands over the
    workload's region list, {!model} analyses each region once into one
    immutable {!model}; the checked run then feeds every commit witness,
    end-of-discovery decision and conflict event through it
    ({!Check.Stream} drives this). A violation means the abstract
    interpreter under-approximated a real execution — a bug in either the
    analyzer or the engine — and is reported as its own verdict class. A
    region missing from the model's list has empty may-sets, an empty
    envelope and no matrix row: each line of its footprint, each of its
    decisions and each conflict it takes part in is a violation whose
    bound, envelope or cover reads "AR not in the workload's list". *)

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

type model
(** One workload's static model ({!Conflict.t}) and each region's sites,
    split once into the may-read and may-write sets. Immutable. *)

val model : t -> Isa.Program.ar list -> model
(** {!Conflict.of_ars} over the workload's full region list, with [t]'s
    geometry. *)

val check_footprint :
  model ->
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
    reads first. A passing check allocates nothing. *)

val check_commit :
  model ->
  ar:Isa.Program.ar ->
  init_regs:(Isa.Instr.reg * int) list ->
  reads:Mem.Addr.line list ->
  writes:Mem.Addr.line list ->
  (unit, violation) result
(** {!check_footprint} over lists, the initial registers installed in
    order. *)

val check_decision :
  model -> ar:Isa.Program.ar -> decision:Clear.Decision.mode -> (unit, violation) result
(** The decision lies in the region's predicted envelope. *)

val check_conflict :
  model ->
  aggressor:Isa.Program.ar ->
  victim:Isa.Program.ar ->
  line:Mem.Addr.line ->
  (unit, violation) result
(** Every engine-observed conflict event (a doom or a cacheline-lock NACK
    with a known line) must land inside the static may-conflict cover for
    the aggressor/victim AR pair. *)

val pp_violation : Format.formatter -> violation -> unit
