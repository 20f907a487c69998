(* Read/write sets are Linesets (flat growable int arrays — transactional
   footprints are a handful of lines, so linear membership beats hashing and
   nothing allocates per access). The store buffer is the log itself: two
   parallel growable int arrays in program order. Forwarding scans the log
   newest-first and commit drains it oldest-first, so no separate addr->value
   table is needed; SQ capacity bounds the scan at a few dozen entries. *)

type t = {
  read_set : Simrt.Lineset.t;
  write_set : Simrt.Lineset.t;
  mutable log_addr : int array;
  mutable log_val : int array;
  mutable log_len : int;
  mutable active : bool;
  mutable power : bool;
}

let create () =
  {
    read_set = Simrt.Lineset.create ~hint:64 ();
    write_set = Simrt.Lineset.create ~hint:64 ();
    log_addr = Array.make 64 0;
    log_val = Array.make 64 0;
    log_len = 0;
    active = false;
    power = false;
  }

let reset t =
  Simrt.Lineset.clear t.read_set;
  Simrt.Lineset.clear t.write_set;
  t.log_len <- 0;
  t.active <- false;
  t.power <- false

let active t = t.active

let start t =
  reset t;
  t.active <- true

let read_line t line = Simrt.Lineset.add t.read_set line

let write_line t line = Simrt.Lineset.add t.write_set line

let in_read_set t line = Simrt.Lineset.mem t.read_set line

let in_write_set t line = Simrt.Lineset.mem t.write_set line

let in_either_set t line = in_read_set t line || in_write_set t line

let read_set t = Simrt.Lineset.sorted_list t.read_set

let write_set t = Simrt.Lineset.sorted_list t.write_set

let iter_lines t f =
  Simrt.Lineset.iter t.read_set f;
  Simrt.Lineset.iter t.write_set f

let footprint t =
  let acc = ref [] in
  Simrt.Lineset.iter t.write_set (fun l ->
      if not (Simrt.Lineset.mem t.read_set l) then acc := l :: !acc);
  Simrt.Lineset.iter t.read_set (fun l -> acc := l :: !acc);
  List.sort Int.compare !acc

let footprint_size t =
  let extra = ref 0 in
  Simrt.Lineset.iter t.write_set (fun l ->
      if not (Simrt.Lineset.mem t.read_set l) then incr extra);
  Simrt.Lineset.size t.read_set + !extra

let buffer_store t addr v =
  if t.log_len = Array.length t.log_addr then begin
    let cap = 2 * t.log_len in
    let na = Array.make cap 0 and nv = Array.make cap 0 in
    Array.blit t.log_addr 0 na 0 t.log_len;
    Array.blit t.log_val 0 nv 0 t.log_len;
    t.log_addr <- na;
    t.log_val <- nv
  end;
  t.log_addr.(t.log_len) <- addr;
  t.log_val.(t.log_len) <- v;
  t.log_len <- t.log_len + 1

(* Newest log index holding [addr], or -1. *)
let rec newest t addr i = if i < 0 || t.log_addr.(i) = addr then i else newest t addr (i - 1)

let forwarded t addr =
  let i = newest t addr (t.log_len - 1) in
  if i < 0 then None else Some t.log_val.(i)

let load t store addr =
  let i = newest t addr (t.log_len - 1) in
  if i < 0 then Mem.Store.read store addr else t.log_val.(i)

let store_count t = t.log_len

let drain t store =
  for i = 0 to t.log_len - 1 do
    Mem.Store.write store t.log_addr.(i) t.log_val.(i)
  done;
  t.log_len

let power t = t.power

let set_power t p = t.power <- p
