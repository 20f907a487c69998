module L = Check.Lock_safety

type kind = Lifecycle of L.event | Converted of Clear.Decision.mode

type event = { time : int; core : int; ar : string; kind : kind }

type t = { ring : event option array; mutable next : int; mutable total : int }

let create ?(capacity = 4096) () =
  if capacity <= 0 then invalid_arg "Trace.create: capacity must be positive";
  { ring = Array.make capacity None; next = 0; total = 0 }

let record t e =
  t.ring.(t.next) <- Some e;
  t.next <- (t.next + 1) mod Array.length t.ring;
  t.total <- t.total + 1

(* The AR each core is running is the only state kept beside the ring: an
   attempt's begin names it, every later event of the attempt is tagged with
   it. Only decisions that convert the retry to a locked mode are kept. *)
let collector t ~cores =
  let ars = Array.make cores "-" in
  let add ~time ~core kind = record t { time; core; ar = ars.(core); kind } in
  let lifecycle (ev : L.event) =
    match ev with
    | Attempt_begin { time; core; ar; _ } ->
        ars.(core) <- ar.Isa.Program.name;
        add ~time ~core (Lifecycle ev)
    | Failed_mode { time; core } | Lock { time; core; _ } | Unlock { time; core; _ }
    | Attempt_end { time; core; _ } ->
        add ~time ~core (Lifecycle ev)
  in
  let decision (d : Check.Collector.decision) =
    match d.decision with
    | Clear.Decision.Speculative_retry -> ()
    | (Clear.Decision.Ns_cl | Clear.Decision.S_cl) as m -> add ~time:d.time ~core:d.core (Converted m)
  in
  Check.Collector.create_streaming ~cores
    {
      Check.Collector.sink_initial = ignore;
      sink_commit = ignore;
      sink_driver_writes = (fun ~time:_ ~core:_ ~stores:_ -> ());
      sink_lock_event = lifecycle;
      sink_decision = decision;
      sink_conflict = ignore;
      sink_ars = ignore;
      sink_stats = (fun () -> (0, 0));
    }

let events t =
  let n = Array.length t.ring in
  let rec collect i acc =
    if i = n then List.rev acc
    else
      let idx = (t.next + i) mod n in
      collect (i + 1) (match t.ring.(idx) with Some e -> e :: acc | None -> acc)
  in
  collect 0 []

let recorded t = t.total

let retained t = min t.total (Array.length t.ring)

let kind_to_string = function
  | Lifecycle (Attempt_begin { attempt; mode; _ }) ->
      Printf.sprintf "begin attempt %d (%s)" attempt (Check.Witness.mode_name mode)
  | Lifecycle (Failed_mode _) -> "enter failed-mode discovery"
  | Converted mode -> "converted: retry as " ^ Clear.Decision.mode_name mode
  | Lifecycle (Lock { line; _ }) -> Printf.sprintf "locked line %d" line
  | Lifecycle (Unlock { line; _ }) -> Printf.sprintf "unlocked line %d" line
  | Lifecycle (Attempt_end { outcome = Committed { mode; retries }; _ }) ->
      Printf.sprintf "commit (%s, %d retries)" (Check.Witness.mode_name mode) retries
  | Lifecycle (Attempt_end { outcome = Aborted cause; _ }) -> "abort: " ^ Abort.cause_name cause

let pp_event ppf e =
  Format.fprintf ppf "@[%8d core%-3d %-18s %s@]" e.time e.core e.ar (kind_to_string e.kind)

let dump ?limit t ppf =
  let all = events t in
  let all =
    match limit with
    | None -> all
    | Some n ->
        let n = max 0 (min n (List.length all)) in
        let len = List.length all in
        if len <= n then all else List.filteri (fun i _ -> i >= len - n) all
  in
  List.iter (fun e -> Format.fprintf ppf "%a@." pp_event e) all

(* ------------------------------------------------------------------ *)
(* Chrome trace_event export                                           *)

let category = function
  | Lifecycle (Attempt_begin _) -> "attempt"
  | Lifecycle (Failed_mode _) | Converted _ -> "discovery"
  | Lifecycle (Lock _ | Unlock _) -> "lock"
  | Lifecycle (Attempt_end { outcome = Committed _; _ }) -> "commit"
  | Lifecycle (Attempt_end { outcome = Aborted _; _ }) -> "abort"

let to_chrome_json t =
  (* One Chrome "process" per simulated core; events are instants on the
     simulated-cycle timeline (chrome://tracing interprets ts as µs — here
     1 µs = 1 cycle). Each element is rendered on its own, so a full ring
     never holds a document tree of a million events. *)
  let module J = Report.Json in
  let all = events t in
  let process core =
    J.Obj
      [
        ("name", J.Str "process_name");
        ("ph", J.Str "M");
        ("pid", J.Int core);
        ("tid", J.Int 0);
        ("args", J.Obj [ ("name", J.Str (Printf.sprintf "core %d" core)) ]);
      ]
  in
  let instant e =
    J.Obj
      [
        ("name", J.Str (kind_to_string e.kind));
        ("cat", J.Str (category e.kind));
        ("ph", J.Str "i");
        ("s", J.Str "t");
        ("ts", J.Int e.time);
        ("pid", J.Int e.core);
        ("tid", J.Int 0);
        ("args", J.Obj [ ("ar", J.Str e.ar) ]);
      ]
  in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"traceEvents\":[";
  Seq.append
    (Seq.map process (List.to_seq (List.sort_uniq compare (List.map (fun e -> e.core) all))))
    (Seq.map instant (List.to_seq all))
  |> Seq.iteri (fun i j ->
         if i > 0 then Buffer.add_char buf ',';
         Buffer.add_string buf (J.to_string j));
  Buffer.add_string buf "],\"displayTimeUnit\":\"ns\"}";
  Buffer.contents buf
