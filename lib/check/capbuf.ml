type t = {
  mutable rl : int array; (* read lines *)
  mutable rt : int array; (* first-read cycles, parallel to rl *)
  mutable rn : int;
  mutable wl : int array;
  mutable wt : int array;
  mutable wn : int;
  mutable sa : int array; (* store addresses, program order *)
  mutable sv : int array; (* store values, parallel to sa *)
  mutable sn : int;
  (* Commit header, stamped by [seal]. *)
  mutable seq : int;
  mutable time : int;
  mutable core : int;
  mutable ar : Isa.Program.ar;
  mutable ir : int array; (* initial registers as (reg, value) pairs *)
  mutable irn : int;
  mutable mode : Witness.mode;
  mutable retries : int;
}

let initial = 16

let no_ar = Isa.Program.make_ar ~id:(-1) ~name:"-" [| Isa.Instr.Halt |]

let create () =
  {
    rl = Array.make initial 0;
    rt = Array.make initial 0;
    rn = 0;
    wl = Array.make initial 0;
    wt = Array.make initial 0;
    wn = 0;
    sa = Array.make initial 0;
    sv = Array.make initial 0;
    sn = 0;
    seq = -1;
    time = 0;
    core = 0;
    ar = no_ar;
    ir = Array.make 8 0;
    irn = 0;
    mode = Witness.Speculative;
    retries = 0;
  }

(* Doubling; callers reassign only when full, since storing into a mutable
   array field costs a write barrier even when the array is unchanged. *)
let grow a n = Array.append a (Array.make n 0)

(* Linear-scan dedup: attempt footprints are bounded by the CLEAR table
   sizes (tens of lines), where a scan beats hashing and allocates nothing. *)
let rec mem a n x i = i < n && (a.(i) = x || mem a n x (i + 1))

let push_read t line time =
  if t.rn = Array.length t.rl then begin
    t.rl <- grow t.rl t.rn;
    t.rt <- grow t.rt t.rn
  end;
  t.rl.(t.rn) <- line;
  t.rt.(t.rn) <- time;
  t.rn <- t.rn + 1

let push_write t line time =
  if t.wn = Array.length t.wl then begin
    t.wl <- grow t.wl t.wn;
    t.wt <- grow t.wt t.wn
  end;
  t.wl.(t.wn) <- line;
  t.wt.(t.wn) <- time;
  t.wn <- t.wn + 1

let note_read t ~line ~time = if not (mem t.rl t.rn line 0) then push_read t line time

let note_write t ~line ~time = if not (mem t.wl t.wn line 0) then push_write t line time

let note_store t ~addr ~value =
  if t.sn = Array.length t.sa then begin
    t.sa <- grow t.sa t.sn;
    t.sv <- grow t.sv t.sn
  end;
  t.sa.(t.sn) <- addr;
  t.sv.(t.sn) <- value;
  t.sn <- t.sn + 1

let reset t =
  t.rn <- 0;
  t.wn <- 0;
  t.sn <- 0

(* Shell sort of the first [n] (line, time) pairs by line, in place; lines
   are unique, so the order is fully determined. Footprints are mostly a
   few lines in near ascending order, so the gaps start at the first one
   below [n]: small footprints get a plain insertion sort. *)
let gaps = [| 701; 301; 132; 57; 23; 10; 4; 1 |]

let sort_pairs lines times n =
  let g = ref 0 in
  while gaps.(!g) >= n && !g < Array.length gaps - 1 do
    incr g
  done;
  for g = !g to Array.length gaps - 1 do
    let gap = gaps.(g) in
    for i = gap to n - 1 do
      let l = lines.(i) and x = times.(i) in
      let j = ref i in
      while !j >= gap && lines.(!j - gap) > l do
        lines.(!j) <- lines.(!j - gap);
        times.(!j) <- times.(!j - gap);
        j := !j - gap
      done;
      lines.(!j) <- l;
      times.(!j) <- x
    done
  done

(* The initial registers are copied as ints: storing the operation's
   freshly allocated list in this long-lived buffer on every commit would
   cost a write-barrier entry each time and grew the major heap by ~40%. *)
let rec push_regs t = function
  | [] -> ()
  | (r, v) :: rest ->
      if 2 * (t.irn + 1) > Array.length t.ir then t.ir <- grow t.ir (Array.length t.ir);
      t.ir.(2 * t.irn) <- r;
      t.ir.((2 * t.irn) + 1) <- v;
      t.irn <- t.irn + 1;
      push_regs t rest

let set_init_regs t init_regs =
  t.irn <- 0;
  push_regs t init_regs

let seal t ~seq ~time ~core ~ar ~init_regs ~mode ~retries =
  sort_pairs t.rl t.rt t.rn;
  sort_pairs t.wl t.wt t.wn;
  t.seq <- seq;
  t.time <- time;
  t.core <- core;
  if t.ar != ar then t.ar <- ar;
  set_init_regs t init_regs;
  t.mode <- mode;
  t.retries <- retries

let load t (w : Witness.t) =
  reset t;
  List.iter (fun (line, time) -> push_read t line time) w.reads;
  List.iter (fun (line, time) -> push_write t line time) w.writes;
  List.iter (fun (addr, value) -> note_store t ~addr ~value) w.stores;
  t.seq <- w.seq;
  t.time <- w.time;
  t.core <- w.core;
  t.ar <- w.ar;
  set_init_regs t w.init_regs;
  t.mode <- w.mode;
  t.retries <- w.retries

let seq t = t.seq

let time t = t.time

let core t = t.core

let ar t = t.ar

let init_regs t = List.init t.irn (fun i -> (t.ir.(2 * i), t.ir.((2 * i) + 1)))

(* Twice per checked commit; a typed loop, as in [Regfile.reset]. *)
let fill_regs t regs =
  for i = 0 to Array.length regs - 1 do
    regs.(i) <- 0
  done;
  for i = 0 to t.irn - 1 do
    regs.(t.ir.(2 * i)) <- t.ir.((2 * i) + 1)
  done

let mode t = t.mode

let retries t = t.retries

let n_reads t = t.rn

let read_line t i = t.rl.(i)

let read_time t i = t.rt.(i)

let n_writes t = t.wn

let write_line t i = t.wl.(i)

let visibility t i = if Witness.mode_buffered t.mode then t.time else t.wt.(i)

let read_lines t = t.rl

let write_lines t = t.wl

let n_stores t = t.sn

let store_addr t i = t.sa.(i)

let store_value t i = t.sv.(i)

let pairs a b n = List.init n (fun i -> (a.(i), b.(i)))

let reads t =
  sort_pairs t.rl t.rt t.rn;
  pairs t.rl t.rt t.rn

let writes t =
  sort_pairs t.wl t.wt t.wn;
  pairs t.wl t.wt t.wn

let stores t = pairs t.sa t.sv t.sn

let header t =
  {
    Witness.seq = t.seq;
    time = t.time;
    core = t.core;
    ar = t.ar;
    mode = t.mode;
    retries = t.retries;
    n_reads = t.rn;
    n_writes = t.wn;
  }

let to_witness t =
  {
    Witness.seq = t.seq;
    time = t.time;
    core = t.core;
    ar = t.ar;
    init_regs = init_regs t;
    mode = t.mode;
    retries = t.retries;
    reads = reads t;
    writes = writes t;
    stores = stores t;
  }
