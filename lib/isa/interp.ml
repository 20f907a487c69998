exception Error of string

let default_fuel = 200_000

let operand regs = function Instr.Reg r -> regs.(r) | Instr.Imm i -> i

let rec install regs = function
  | [] -> ()
  | (r, v) :: rest ->
      regs.(r) <- v;
      install regs rest

let exec ?(fuel = default_fuel) ~regs (ar : Program.ar) ~load ~store =
  let body = ar.Program.body in
  let pc = ref 0 in
  let steps = ref 0 in
  let running = ref true in
  while !running do
    if !pc < 0 || !pc >= Array.length body then
      raise (Error (Printf.sprintf "Interp: PC %d out of range in %s" !pc ar.Program.name));
    incr steps;
    if !steps > fuel then
      raise (Error (Printf.sprintf "Interp: %s exceeded %d instructions" ar.Program.name fuel));
    match body.(!pc) with
    | Instr.Halt -> running := false
    | Instr.Nop -> incr pc
    | Instr.Mov { dst; src } ->
        regs.(dst) <- operand regs src;
        incr pc
    | Instr.Binop { op; dst; a; b } ->
        regs.(dst) <- Instr.eval_binop op (operand regs a) (operand regs b);
        incr pc
    | Instr.Jmp target -> pc := target
    | Instr.Br { cond; a; b; target } ->
        pc := (if Instr.eval_cond cond (operand regs a) (operand regs b) then target else !pc + 1)
    | Instr.Ld { dst; base; off; region = _ } ->
        regs.(dst) <- load (operand regs base + off);
        incr pc
    | Instr.St { base; off; src; region = _ } ->
        store (operand regs base + off) (operand regs src);
        incr pc
  done

let run ?fuel ar ~init_regs ~load ~store =
  let regs = Array.make Instr.num_regs 0 in
  install regs init_regs;
  exec ?fuel ~regs ar ~load ~store
