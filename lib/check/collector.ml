type entry =
  | Commit of Witness.t
  | Driver_writes of { time : int; core : int; stores : (Mem.Addr.t * int) list }

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

type t = {
  n_cores : int;
  sink : sink option;
  mutable initial : Mem.Store.image option;
  mutable rev_entries : entry list;
  mutable rev_lock_events : Lock_safety.event list;
  mutable rev_decisions : decision list;
  mutable rev_conflicts : conflict list;
  mutable ars : Isa.Program.ar list;
  mutable next_seq : int;
}

let make ~cores sink =
  {
    n_cores = cores;
    sink;
    initial = None;
    rev_entries = [];
    rev_lock_events = [];
    rev_decisions = [];
    rev_conflicts = [];
    ars = [];
    next_seq = 0;
  }

let create ~cores = make ~cores None

let create_streaming ~cores sink = make ~cores (Some sink)

let cores t = t.n_cores

let is_streaming t = t.sink <> None

let stream_stats t = Option.map (fun s -> s.sink_stats ()) t.sink

let set_initial t store =
  match t.sink with
  | None -> t.initial <- Some (Mem.Store.snapshot store)
  | Some s -> s.sink_initial store

let set_ars t ars =
  t.ars <- ars;
  match t.sink with None -> () | Some s -> s.sink_ars ars

let add_commit t buf ~time ~core ~ar ~init_regs ~mode ~retries =
  Capbuf.seal buf ~seq:t.next_seq ~time ~core ~ar ~init_regs ~mode ~retries;
  t.next_seq <- t.next_seq + 1;
  match t.sink with
  | None -> t.rev_entries <- Commit (Capbuf.to_witness buf) :: t.rev_entries
  | Some s -> s.sink_commit buf

let add_driver_writes t ~time ~core ~stores =
  if stores <> [] then
    match t.sink with
    | None -> t.rev_entries <- Driver_writes { time; core; stores } :: t.rev_entries
    | Some s -> s.sink_driver_writes ~time ~core ~stores

let add_lock_event t ev =
  match t.sink with
  | None -> t.rev_lock_events <- ev :: t.rev_lock_events
  | Some s -> s.sink_lock_event ev

let add_decision t ~time ~core ~ar ~decision =
  let d = { time; core; ar; decision } in
  match t.sink with
  | None -> t.rev_decisions <- d :: t.rev_decisions
  | Some s -> s.sink_decision d

let add_conflict t ~time ~aggressor_core ~victim_core ~aggressor_ar ~victim_ar ~line =
  let c = { time; aggressor_core; victim_core; aggressor_ar; victim_ar; line } in
  match t.sink with
  | None -> t.rev_conflicts <- c :: t.rev_conflicts
  | Some s -> s.sink_conflict c

let initial t = t.initial

let entries t = List.rev t.rev_entries

let witnesses t =
  List.filter_map (function Commit w -> Some w | Driver_writes _ -> None) (entries t)

let lock_events t = List.rev t.rev_lock_events

let decisions t = List.rev t.rev_decisions

let conflicts t = List.rev t.rev_conflicts

let ars t = t.ars

let commit_count t = t.next_seq
