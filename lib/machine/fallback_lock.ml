type t = { mutable writer : int; mutable readers : int; mutable waiting_writers : int }

let create () = { writer = -1; readers = 0; waiting_writers = 0 }

let bit core = 1 lsl core

let try_write_lock t ~core =
  if t.writer = -1 && t.readers = 0 then begin
    t.writer <- core;
    t.waiting_writers <- t.waiting_writers land lnot (bit core);
    true
  end
  else false

let try_read_lock t ~core =
  if t.writer = -1 && t.waiting_writers = 0 then begin
    t.readers <- t.readers lor bit core;
    true
  end
  else false

let announce_writer t ~core = t.waiting_writers <- t.waiting_writers lor bit core

let withdraw_writer t ~core = t.waiting_writers <- t.waiting_writers land lnot (bit core)

let release t ~core =
  if t.writer = core then t.writer <- -1;
  t.readers <- t.readers land lnot (bit core)

let writer t = if t.writer = -1 then None else Some t.writer

let writer_held t = t.writer <> -1

let readers t =
  let rec loop c acc = if c < 0 then acc else loop (c - 1) (if t.readers land bit c <> 0 then c :: acc else acc) in
  loop 62 []

let free t = t.writer = -1 && t.readers = 0 && t.waiting_writers = 0
