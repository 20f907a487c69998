type decision = {
  time : int;
  core : int;
  ar : Isa.Program.ar;
  decision : Clear.Decision.mode;
}

type conflict = {
  time : int;
  aggressor_core : int;
  victim_core : int;
  aggressor_ar : Isa.Program.ar;
  victim_ar : Isa.Program.ar;
  line : Mem.Addr.line;
}

type sink = {
  sink_initial : Mem.Store.t -> unit;
  sink_commit : Capbuf.t -> unit;
  sink_driver_writes : time:int -> core:int -> stores:(Mem.Addr.t * int) list -> unit;
  sink_lock_event : Lock_safety.event -> unit;
  sink_decision : decision -> unit;
  sink_conflict : conflict -> unit;
  sink_ars : Isa.Program.ar list -> unit;
  sink_stats : unit -> int * int;
}

type t = { sink : sink; mutable next_seq : int }

let create_streaming ~cores:_ sink = { sink; next_seq = 0 }

let stream_stats t = t.sink.sink_stats ()

let set_initial t store = t.sink.sink_initial store

let set_ars t ars = t.sink.sink_ars ars

let add_commit t buf ~time ~core ~ar ~init_regs ~mode ~retries =
  Capbuf.seal buf ~seq:t.next_seq ~time ~core ~ar ~init_regs ~mode ~retries;
  t.next_seq <- t.next_seq + 1;
  t.sink.sink_commit buf

let add_driver_writes t ~time ~core ~stores =
  if stores <> [] then t.sink.sink_driver_writes ~time ~core ~stores

let add_lock_event t ev = t.sink.sink_lock_event ev

let add_decision t ~time ~core ~ar ~decision = t.sink.sink_decision { time; core; ar; decision }

let add_conflict t ~time ~aggressor_core ~victim_core ~aggressor_ar ~victim_ar ~line =
  t.sink.sink_conflict { time; aggressor_core; victim_core; aggressor_ar; victim_ar; line }
