type kind =
  | Begin_attempt of { attempt : int; mode : string }
  | Enter_failed_mode
  | Converted of string
  | Locked of Mem.Addr.line
  | Unlocked of Mem.Addr.line
  | Commit of { mode : string; retries : int }
  | Aborted of Abort.cause

type event = { time : int; core : int; ar : string; kind : kind }

type t = { ring : event option array; mutable next : int; mutable total : int }

let create ?(capacity = 4096) () =
  if capacity <= 0 then invalid_arg "Trace.create: capacity must be positive";
  { ring = Array.make capacity None; next = 0; total = 0 }

let record t ~time ~core ~ar kind =
  t.ring.(t.next) <- Some { time; core; ar; kind };
  t.next <- (t.next + 1) mod Array.length t.ring;
  t.total <- t.total + 1

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
  | Begin_attempt { attempt; mode } -> Printf.sprintf "begin attempt %d (%s)" attempt mode
  | Enter_failed_mode -> "enter failed-mode discovery"
  | Converted mode -> "converted: retry as " ^ mode
  | Locked line -> Printf.sprintf "locked line %d" line
  | Unlocked line -> Printf.sprintf "unlocked line %d" line
  | Commit { mode; retries } -> Printf.sprintf "commit (%s, %d retries)" mode retries
  | Aborted cause -> "abort: " ^ Abort.cause_name cause

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

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_chrome_json t =
  (* One Chrome "process" per simulated core; events are instants on the
     simulated-cycle timeline (chrome://tracing interprets ts as µs — here
     1 µs = 1 cycle). *)
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"traceEvents\":[";
  let first = ref true in
  let emit s =
    if not !first then Buffer.add_char buf ',';
    first := false;
    Buffer.add_string buf s
  in
  let cores = Hashtbl.create 16 in
  List.iter (fun e -> Hashtbl.replace cores e.core ()) (events t);
  Hashtbl.fold (fun core () acc -> core :: acc) cores []
  |> List.sort compare
  |> List.iter (fun core ->
         emit
           (Printf.sprintf
              "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":0,\"args\":{\"name\":\"core %d\"}}"
              core core));
  List.iter
    (fun e ->
      emit
        (Printf.sprintf
           "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"i\",\"s\":\"t\",\"ts\":%d,\"pid\":%d,\"tid\":0,\"args\":{\"ar\":\"%s\"}}"
           (json_escape (kind_to_string e.kind))
           (match e.kind with
           | Begin_attempt _ -> "attempt"
           | Enter_failed_mode | Converted _ -> "discovery"
           | Locked _ | Unlocked _ -> "lock"
           | Commit _ -> "commit"
           | Aborted _ -> "abort")
           e.time e.core (json_escape e.ar)))
    (events t);
  Buffer.add_string buf "],\"displayTimeUnit\":\"ns\"}";
  Buffer.contents buf
