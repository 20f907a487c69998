type op = {
  ar : Isa.Program.ar;
  init_regs : (Isa.Instr.reg * int) list;
  extra_think : int;
  lock_id : int;
}

type driver = unit -> op

type t = {
  name : string;
  description : string;
  ars : Isa.Program.ar list;
  memory_words : int;
  setup : Mem.Store.t -> Simrt.Rng.t -> unit;
  make_driver : tid:int -> threads:int -> Mem.Store.t -> Simrt.Rng.t -> driver;
}

let op ?(extra_think = 0) ?(lock_id = 0) ar init_regs = { ar; init_regs; extra_think; lock_id }
