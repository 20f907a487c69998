type t = { values : int array; indirection : Clear.Indirection.t }

let create () =
  {
    values = Array.make Isa.Instr.num_regs 0;
    indirection = Clear.Indirection.create ~regs:Isa.Instr.num_regs;
  }

let reset t =
  Array.fill t.values 0 (Array.length t.values) 0;
  Clear.Indirection.reset t.indirection

let load_initial t inits =
  reset t;
  List.iter (fun (r, v) -> t.values.(r) <- v) inits

let get t r = t.values.(r)

let operand t = function Isa.Instr.Reg r -> t.values.(r) | Isa.Instr.Imm i -> i

let operand_tainted t = function
  | Isa.Instr.Reg r -> Clear.Indirection.get t.indirection r
  | Isa.Instr.Imm _ -> false

let define_alu t ~dst a b v =
  Clear.Indirection.assign t.indirection dst (operand_tainted t a || operand_tainted t b);
  t.values.(dst) <- v

let define_load t ~dst v =
  Clear.Indirection.define_load t.indirection ~dst;
  t.values.(dst) <- v
