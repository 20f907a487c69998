(* In-memory span recorder for the traced run.

   A recorder belongs to one domain at a time: the main domain owns one, and
   every pool task builds its own and returns its spans with its result, so
   nothing is shared across domains. Span ids are [base + seq]; each
   recorder gets a distinct [base], so ids stay unique after merging. *)

let now () = Int64.to_int (Monotonic_clock.now ())

type span = {
  id : int;
  parent : int;  (** -1 for a root *)
  name : string;
  req : int;  (** sim index or open-loop point; -1 when none *)
  tid : int;  (** domain that ran the span *)
  t0 : int;  (** monotonic ns *)
  t1 : int;
  calls : int;  (** > 0 marks an aggregate: [calls] callbacks summed into one span *)
}

type t = { base : int; mutable seq : int; mutable stack : int list; mutable spans : span list }

let create ?(base = 0) ?(parent = -1) () = { base; seq = 0; stack = [ parent ]; spans = [] }

let current t = match t.stack with p :: _ -> p | [] -> -1

let fresh t =
  let id = t.base + t.seq in
  t.seq <- t.seq + 1;
  id

let tid () = (Domain.self () :> int)

let span t ?(req = -1) name f =
  let id = fresh t and parent = current t in
  t.stack <- id :: t.stack;
  let t0 = now () in
  let close () =
    t.stack <- List.tl t.stack;
    t.spans <- { id; parent; name; req; tid = tid (); t0; t1 = now (); calls = 0 } :: t.spans
  in
  match f () with
  | v ->
      close ();
      v
  | exception e ->
      close ();
      raise e

(* Millions of check-sink callbacks cannot each be a span; their summed busy
   time becomes one child of the enclosing span, placed at its end, so the
   parent's self time excludes it. *)
let aggregate t ?(req = -1) name ~ns ~calls ~until =
  let id = fresh t in
  t.spans <-
    { id; parent = current t; name; req; tid = tid (); t0 = until - ns; t1 = until; calls }
    :: t.spans

let dur s = s.t1 - s.t0

(* Length of the union of [ivs] clipped to [lo, hi]. *)
let covered ~lo ~hi ivs =
  let ivs = List.sort compare (List.map (fun (a, b) -> (max lo a, min hi b)) ivs) in
  fst
    (List.fold_left
       (fun (acc, reach) (a, b) -> if b <= reach then (acc, reach) else (acc + b - max a reach, b))
       (0, lo) ivs)

(* Self time: duration minus the part of it that child spans cover (children
   on other domains may overlap each other, hence the union). *)
let self_ns spans =
  let children = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.add children s.parent (s.t0, s.t1)) spans;
  fun s -> dur s - covered ~lo:s.t0 ~hi:s.t1 (Hashtbl.find_all children s.id)

let named name spans = List.filter (fun s -> s.name = name) spans

let total_ns name spans = List.fold_left (fun acc s -> acc + dur s) 0 (named name spans)

let total_self_ns name spans =
  let self = self_ns spans in
  List.fold_left (fun acc s -> acc + self s) 0 (named name spans)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* One Chrome-trace complete ("X") event; [origin] is the process's spawn
   time, so [ts] reads as microseconds since the child was started. *)
let chrome_event ~pid ~origin s =
  Printf.sprintf
    "{\"name\":%s,\"cat\":%s,\"ph\":\"X\",\"pid\":%d,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"req\":%d,\"calls\":%d}}"
    (json_string s.name)
    (json_string (List.hd (String.split_on_char '.' s.name)))
    pid s.tid
    (float_of_int (s.t0 - origin) /. 1e3)
    (float_of_int (dur s) /. 1e3)
    s.id s.parent s.req s.calls
