type reg = int

let num_regs = 32

type operand = Reg of reg | Imm of int

type binop = Add | Sub | Mul | Div | Rem | And | Or | Xor | Shl | Shr | Min | Max

type cond = Eq | Ne | Lt | Le | Gt | Ge

type t =
  | Ld of { dst : reg; base : operand; off : int; region : string }
  | St of { base : operand; off : int; src : operand; region : string }
  | Mov of { dst : reg; src : operand }
  | Binop of { op : binop; dst : reg; a : operand; b : operand }
  | Br of { cond : cond; a : operand; b : operand; target : int }
  | Jmp of int
  | Nop
  | Halt

let eval_binop op a b =
  match op with
  | Add -> a + b
  | Sub -> a - b
  | Mul -> a * b
  | Div -> if b = 0 then 0 else a / b
  | Rem -> if b = 0 then 0 else a mod b
  | And -> a land b
  | Or -> a lor b
  | Xor -> a lxor b
  | Shl -> a lsl (b land 63)
  | Shr -> a asr (b land 63)
  | Min -> min a b
  | Max -> max a b

let eval_cond cond (a : int) b =
  match cond with Eq -> a = b | Ne -> a <> b | Lt -> a < b | Le -> a <= b | Gt -> a > b | Ge -> a >= b

let base_cost = function
  | Ld _ | St _ -> 1 (* memory latency charged separately *)
  | Mov _ | Nop -> 1
  | Binop { op = Mul; _ } -> 3
  | Binop { op = Div | Rem; _ } -> 20
  | Binop _ -> 1
  | Br _ | Jmp _ -> 1
  | Halt -> 0

let is_mem = function Ld _ | St _ -> true | Mov _ | Binop _ | Br _ | Jmp _ | Nop | Halt -> false

let pp_operand ppf = function
  | Reg r -> Format.fprintf ppf "r%d" r
  | Imm i -> Format.fprintf ppf "#%d" i

let binop_name = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | Div -> "div"
  | Rem -> "rem"
  | And -> "and"
  | Or -> "or"
  | Xor -> "xor"
  | Shl -> "shl"
  | Shr -> "shr"
  | Min -> "min"
  | Max -> "max"

let cond_name = function Eq -> "eq" | Ne -> "ne" | Lt -> "lt" | Le -> "le" | Gt -> "gt" | Ge -> "ge"

let pp ppf = function
  | Ld { dst; base; off; region } ->
      Format.fprintf ppf "ld r%d, [%a + %d]%s" dst pp_operand base off
        (if region = "" then "" else " ; " ^ region)
  | St { base; off; src; region } ->
      Format.fprintf ppf "st [%a + %d], %a%s" pp_operand base off pp_operand src
        (if region = "" then "" else " ; " ^ region)
  | Mov { dst; src } -> Format.fprintf ppf "mov r%d, %a" dst pp_operand src
  | Binop { op; dst; a; b } ->
      Format.fprintf ppf "%s r%d, %a, %a" (binop_name op) dst pp_operand a pp_operand b
  | Br { cond; a; b; target } ->
      Format.fprintf ppf "b%s %a, %a -> %d" (cond_name cond) pp_operand a pp_operand b target
  | Jmp target -> Format.fprintf ppf "jmp %d" target
  | Nop -> Format.fprintf ppf "nop"
  | Halt -> Format.fprintf ppf "halt"

let validate body =
  let n = Array.length body in
  let check_reg r = r >= 0 && r < num_regs in
  let check_operand = function Reg r -> check_reg r | Imm _ -> true in
  let check_target t = t >= 0 && t < n in
  let has_halt = ref false in
  let err = ref None in
  Array.iteri
    (fun i instr ->
      if !err = None then begin
        let bad msg = err := Some (Printf.sprintf "instruction %d: %s" i msg) in
        match instr with
        | Ld { dst; base; _ } ->
            if not (check_reg dst) then bad "bad destination register"
            else if not (check_operand base) then bad "bad base operand"
        | St { base; src; _ } ->
            if not (check_operand base) then bad "bad base operand"
            else if not (check_operand src) then bad "bad source operand"
        | Mov { dst; src } ->
            if not (check_reg dst) then bad "bad destination register"
            else if not (check_operand src) then bad "bad source operand"
        | Binop { dst; a; b; _ } ->
            if not (check_reg dst) then bad "bad destination register"
            else if not (check_operand a && check_operand b) then bad "bad operand"
        | Br { a; b; target; _ } ->
            if not (check_operand a && check_operand b) then bad "bad operand"
            else if not (check_target target) then bad "branch target out of range"
        | Jmp target -> if not (check_target target) then bad "jump target out of range"
        | Nop -> ()
        | Halt -> has_halt := true
      end)
    body;
  match !err with
  | Some e -> Error e
  | None -> if !has_halt then Ok () else Error "body contains no halt"
