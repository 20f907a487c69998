type t = { values : int array; indirection : Clear.Indirection.t }

let create () =
  {
    values = Array.make Isa.Instr.num_regs 0;
    indirection = Clear.Indirection.create ~regs:Isa.Instr.num_regs;
  }

(* Runs on every attempt. A typed loop compiles to plain stores;
   [Array.fill] is a C call that no inlining reaches. *)
let reset t =
  let v = t.values in
  for i = 0 to Array.length v - 1 do
    v.(i) <- 0
  done;
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
