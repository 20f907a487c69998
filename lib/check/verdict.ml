type t = {
  commits : int;
  serial : (unit, Serial.violation) result;
  replay : (unit, Replay.divergence) result;
  locks : (unit, Lock_safety.violation) result;
  static_ : (unit, Staticcheck.Gate.violation) result option;
}

let ok t =
  Result.is_ok t.serial && Result.is_ok t.replay && Result.is_ok t.locks
  && match t.static_ with None -> true | Some r -> Result.is_ok r

(* Dynamic footprint ⊆ static may-sets for every witness, every
   end-of-discovery decision inside the static envelope, and every observed
   conflict line inside the static may-conflict cover for its AR pair. *)
let run_static_gate gate collector =
  let buf = Capbuf.create () and regs = Array.make Isa.Instr.num_regs 0 in
  let check_witness (w : Witness.t) =
    Capbuf.load buf w;
    Capbuf.fill_regs buf regs;
    Staticcheck.Gate.check_footprint gate ~ar:w.Witness.ar ~regs ~reads:(Capbuf.read_lines buf)
      ~n_reads:(Capbuf.n_reads buf) ~writes:(Capbuf.write_lines buf) ~n_writes:(Capbuf.n_writes buf)
  in
  let check_decision (d : Collector.decision) =
    Staticcheck.Gate.check_decision gate ~ar:d.Collector.ar ~decision:d.Collector.decision
  in
  let rec all f = function
    | [] -> Ok ()
    | x :: rest -> ( match f x with Ok () -> all f rest | Error _ as e -> e)
  in
  let check_conflict (c : Collector.conflict) =
    Staticcheck.Gate.check_conflict gate ~ars:(Collector.ars collector)
      ~aggressor:c.Collector.aggressor_ar ~victim:c.Collector.victim_ar ~line:c.Collector.line
  in
  match all check_witness (Collector.witnesses collector) with
  | Error _ as e -> e
  | Ok () -> (
      match all check_decision (Collector.decisions collector) with
      | Error _ as e -> e
      | Ok () -> all check_conflict (Collector.conflicts collector))

let evaluate ?static_gate collector ~final =
  if Collector.is_streaming collector then
    invalid_arg "Verdict.evaluate: streaming collector retains no history; use of_stream";
  let initial =
    match Collector.initial collector with
    | Some snap -> snap
    | None -> invalid_arg "Verdict.evaluate: collector has no initial snapshot"
  in
  {
    commits = Collector.commit_count collector;
    serial = Serial.check (Collector.witnesses collector);
    replay = Replay.run ~initial ~entries:(Collector.entries collector) ~final;
    locks = Lock_safety.check ~cores:(Collector.cores collector) (Collector.lock_events collector);
    static_ = Option.map (fun gate -> run_static_gate gate collector) static_gate;
  }

let of_stream stream ~final =
  let r = Stream.finish stream ~final in
  {
    commits = r.Stream.commits;
    serial = r.Stream.serial;
    replay = r.Stream.replay;
    locks = r.Stream.locks;
    static_ = r.Stream.static_;
  }

let pp_oracle fmt name pp_err = function
  | Ok () -> Format.fprintf fmt "@ %-16s PASS" name
  | Error e -> Format.fprintf fmt "@ %-16s FAIL@   @[%a@]" name pp_err e

let pp fmt t =
  Format.fprintf fmt "@[<v2>check: %d committed attempt(s)%s"
    t.commits
    (if ok t then " — all oracles passed" else "");
  pp_oracle fmt "serializability" Serial.pp_violation t.serial;
  pp_oracle fmt "replay" Replay.pp_divergence t.replay;
  pp_oracle fmt "lock-safety" Lock_safety.pp_violation t.locks;
  (match t.static_ with
  | None -> ()
  | Some r -> pp_oracle fmt "static-gate" Staticcheck.Gate.pp_violation r);
  Format.fprintf fmt "@]"

let to_string t = Format.asprintf "%a" pp t
