(** Sequential reference interpreter for atomic-region bodies.

    Executes one AR single-threaded against caller-supplied [load]/[store]
    callbacks, with exactly the instruction semantics of the simulated
    machine (same [eval_binop]/[eval_cond], division by zero yields 0).
    This is the replay entry point of the execution oracle: re-running every
    committed AR in commit order on a fresh store must reproduce the
    concurrent simulation's final memory image bit for bit. *)

val fuel : int
(** 200,000: the most dynamic instructions one execution of an AR body may
    run, here and in the simulator's runaway-loop guard. *)

exception Error of string
(** Raised on a runaway body (more than {!fuel} dynamic instructions) or a
    PC out of range. *)

val run :
  Program.ar ->
  init_regs:(Instr.reg * int) list ->
  load:(int -> int) ->
  store:(int -> int -> unit) ->
  unit
(** Execute the body from PC 0 until [Halt]. Registers start at zero with
    [init_regs] installed, mirroring [Regfile.load_initial]. *)

val exec :
  regs:int array ->
  Program.ar ->
  load:(int -> int) ->
  store:(int -> int -> unit) ->
  unit
(** {!run} on a caller-owned register file of [Instr.num_regs] slots that
    already holds the initial registers: a replay loop reuses one file and
    allocates nothing per region. *)
