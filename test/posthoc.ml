(* Post hoc reference for the streaming checker. An accumulating
   [Check.Collector.sink] retains everything a checked run emits, copying
   each borrowed witness ([Check.Capbuf.to_witness]); after the run the
   four oracles run over the whole history: [Check.Serial.check], a
   start/step/finish replay from the initial image, [Check.Lock_safety.check]
   and the static gate. The tests hold [Check.Stream]'s verdicts equal to
   this one, report for report. *)

type entry =
  | Commit of Check.Witness.t
  | Driver_writes of (Mem.Addr.t * int) list
      (** Non-transactional stores a driver issued, replayed at their
          position in the history. *)

type t = {
  mutable initial : Mem.Store.image option;
  mutable rev_entries : entry list;
  mutable rev_lock_events : Check.Lock_safety.event list;
  mutable rev_decisions : Check.Collector.decision list;
  mutable rev_conflicts : Check.Collector.conflict list;
  mutable ars : Isa.Program.ar list;
}

let create () =
  {
    initial = None;
    rev_entries = [];
    rev_lock_events = [];
    rev_decisions = [];
    rev_conflicts = [];
    ars = [];
  }

let sink t =
  {
    Check.Collector.sink_initial = (fun store -> t.initial <- Some (Mem.Store.snapshot store));
    sink_commit =
      (fun buf -> t.rev_entries <- Commit (Check.Capbuf.to_witness buf) :: t.rev_entries);
    sink_driver_writes =
      (fun ~time:_ ~core:_ ~stores -> t.rev_entries <- Driver_writes stores :: t.rev_entries);
    sink_lock_event = (fun ev -> t.rev_lock_events <- ev :: t.rev_lock_events);
    sink_decision = (fun d -> t.rev_decisions <- d :: t.rev_decisions);
    sink_conflict = (fun c -> t.rev_conflicts <- c :: t.rev_conflicts);
    sink_ars = (fun ars -> t.ars <- ars);
    sink_stats = (fun () -> (0, 0));
  }

(* Replay a complete history from [initial] and compare against [final]. *)
let replay ~initial ~entries ~final =
  let cur = Check.Replay.start ~initial in
  let scratch = Check.Capbuf.create () in
  let rec go = function
    | [] -> Check.Replay.finish cur ~final
    | Commit w :: rest -> (
        Check.Capbuf.load scratch w;
        match Check.Replay.step cur scratch with Ok () -> go rest | Error _ as e -> e)
    | Driver_writes stores :: rest ->
        Check.Replay.apply_driver_writes cur stores;
        go rest
  in
  go entries

let rec first_error f = function
  | [] -> Ok ()
  | x :: rest -> ( match f x with Ok () -> first_error f rest | Error _ as e -> e)

(* Every witness's footprint inside the static may-sets, then every
   end-of-discovery decision inside the static envelope, then every
   observed conflict line inside the static may-conflict cover. *)
let static_gate gate t ws =
  let module G = Staticcheck.Gate in
  let model = G.model gate t.ars in
  let buf = Check.Capbuf.create () and regs = Array.make Isa.Instr.num_regs 0 in
  let check_witness (w : Check.Witness.t) =
    Check.Capbuf.load buf w;
    Check.Capbuf.fill_regs buf regs;
    G.check_footprint model ~ar:w.Check.Witness.ar ~regs ~reads:(Check.Capbuf.read_lines buf)
      ~n_reads:(Check.Capbuf.n_reads buf) ~writes:(Check.Capbuf.write_lines buf)
      ~n_writes:(Check.Capbuf.n_writes buf)
  in
  let check_decision (d : Check.Collector.decision) =
    G.check_decision model ~ar:d.Check.Collector.ar ~decision:d.Check.Collector.decision
  in
  let check_conflict (c : Check.Collector.conflict) =
    G.check_conflict model ~aggressor:c.Check.Collector.aggressor_ar
      ~victim:c.Check.Collector.victim_ar ~line:c.Check.Collector.line
  in
  match first_error check_witness ws with
  | Error _ as e -> e
  | Ok () -> (
      match first_error check_decision (List.rev t.rev_decisions) with
      | Error _ as e -> e
      | Ok () -> first_error check_conflict (List.rev t.rev_conflicts))

let verdict ?static_gate:gate t ~cores ~final =
  let initial =
    match t.initial with
    | Some img -> img
    | None -> invalid_arg "Posthoc.verdict: no initial snapshot was fed"
  in
  let entries = List.rev t.rev_entries in
  let ws = List.filter_map (function Commit w -> Some w | Driver_writes _ -> None) entries in
  {
    Check.Verdict.commits = List.length ws;
    serial = Check.Serial.check ws;
    replay = replay ~initial ~entries ~final;
    locks = Check.Lock_safety.check ~cores (List.rev t.rev_lock_events);
    static_ = Option.map (fun g -> static_gate g t ws) gate;
  }

(* [Clear_repro.Run.run_sim_checked] with this reference in place of the
   streaming checker: same engine, same static gate. *)
let run_sim_checked ({ Clear_repro.Run.cfg; workload; seed } : Clear_repro.Run.sim) =
  let cfg = Machine.Config.with_seed cfg seed in
  let cores = cfg.Machine.Config.cores in
  let t = create () in
  let engine =
    Machine.Engine.create ~check:(Check.Collector.create_streaming ~cores (sink t)) cfg workload
  in
  let stats = Machine.Engine.run engine in
  let final = Mem.Store.snapshot (Machine.Engine.store engine) in
  (stats, verdict ~static_gate:(Clear_repro.Run.static_gate_of_config cfg) t ~cores ~final)
