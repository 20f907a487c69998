type mode = Speculative | Scl | Nscl | Fallback

let mode_buffered = function Speculative | Scl -> true | Nscl | Fallback -> false

let mode_name = function
  | Speculative -> "speculative"
  | Scl -> "S-CL"
  | Nscl -> "NS-CL"
  | Fallback -> "fallback"

type header = {
  seq : int;
  time : int;
  core : int;
  ar : Isa.Program.ar;
  mode : mode;
  retries : int;
  n_reads : int;
  n_writes : int;
}

let pp_header fmt (h : header) =
  Format.fprintf fmt "#%d t=%d core=%d %s %s (%dR/%dW)" h.seq h.time h.core (mode_name h.mode)
    h.ar.Isa.Program.name h.n_reads h.n_writes

type t = {
  seq : int;
  time : int;
  core : int;
  ar : Isa.Program.ar;
  init_regs : (Isa.Instr.reg * int) list;
  mode : mode;
  retries : int;
  reads : (Mem.Addr.line * int) list;
  writes : (Mem.Addr.line * int) list;
  stores : (Mem.Addr.t * int) list;
}

let header (w : t) =
  {
    seq = w.seq;
    time = w.time;
    core = w.core;
    ar = w.ar;
    mode = w.mode;
    retries = w.retries;
    n_reads = List.length w.reads;
    n_writes = List.length w.writes;
  }

let visibility (w : t) line =
  let first_write = List.assoc line w.writes in
  if mode_buffered w.mode then w.time else first_write
