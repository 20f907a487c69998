type t = Bytes.t

let create ~regs =
  if regs <= 0 then invalid_arg "Indirection.create: regs must be positive";
  Bytes.make regs '\000'

let reset t = Bytes.fill t 0 (Bytes.length t) '\000'

let set t r = Bytes.set t r '\001'

let get t r = Bytes.get t r <> '\000'

let assign t r tainted = Bytes.set t r (if tainted then '\001' else '\000')

let define t ~dst ~srcs = assign t dst (List.exists (get t) srcs)

let define_load t ~dst = set t dst

let any_set t srcs = List.exists (get t) srcs

let count_set t =
  let n = ref 0 in
  Bytes.iter (fun c -> if c <> '\000' then incr n) t;
  !n
