(** Sequential reference interpreter for atomic-region bodies.

    Executes one AR single-threaded against caller-supplied [load]/[store]
    callbacks, with exactly the instruction semantics of the simulated
    machine (same [eval_binop]/[eval_cond], division by zero yields 0).
    This is the replay entry point of the execution oracle: re-running every
    committed AR in commit order on a fresh store must reproduce the
    concurrent simulation's final memory image bit for bit. *)

exception Error of string
(** Raised on a runaway body (fuel exhausted) or a PC out of range. *)

val run :
  ?fuel:int ->
  Program.ar ->
  init_regs:(Instr.reg * int) list ->
  load:(int -> int) ->
  store:(int -> int -> unit) ->
  unit
(** Execute the body from PC 0 until [Halt]. Registers start at zero with
    [init_regs] installed, mirroring [Regfile.load_initial]. *)

val exec :
  ?fuel:int ->
  regs:int array ->
  Program.ar ->
  load:(int -> int) ->
  store:(int -> int -> unit) ->
  unit
(** {!run} on a caller-owned register file of [Instr.num_regs] slots that
    already holds the initial registers: a replay loop reuses one file and
    allocates nothing per region. *)
