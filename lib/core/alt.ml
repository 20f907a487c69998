type entry = {
  line : Mem.Addr.line;
  dir_set : int;
  mutable written : bool;
  mutable needs_locking : bool;
  mutable locked : bool;
  mutable hit : bool;
  mutable conflict : bool;
}

type t = {
  capacity : int;
  dir_set_of : Mem.Addr.line -> int;
  mutable rows : entry list; (* sorted by (dir_set, line) *)
  mutable count : int;
}

let default_capacity = 32

let create ?(capacity = default_capacity) ~dir_set_of () =
  if capacity <= 0 then invalid_arg "Alt.create: capacity must be positive";
  { capacity; dir_set_of; rows = []; count = 0 }

let size t = t.count

let reset t =
  t.rows <- [];
  t.count <- 0

(* Lock order: (dir_set, line) lexicographically, compared as ints. *)
let before a b = a.dir_set < b.dir_set || (a.dir_set = b.dir_set && a.line < b.line)

(* OR [written] into [line]'s row; false when there is no such row. *)
let rec merge_row line ~written = function
  | [] -> false
  | e :: rest ->
      if e.line = line then begin
        if written then e.written <- true;
        true
      end
      else merge_row line ~written rest

let rec insert_row e = function
  | [] -> [ e ]
  | x :: rest as rows -> if before e x then e :: rows else x :: insert_row e rest

let record t line ~written =
  if merge_row line ~written t.rows then `Ok
  else if t.count >= t.capacity then `Overflow
  else begin
    let e =
      {
        line;
        dir_set = t.dir_set_of line;
        written;
        needs_locking = false;
        locked = false;
        hit = false;
        conflict = false;
      }
    in
    t.rows <- insert_row e t.rows;
    t.count <- t.count + 1;
    `Ok
  end

let lines t = List.map (fun e -> e.line) t.rows

let written_lines t = List.filter_map (fun e -> if e.written then Some e.line else None) t.rows

(* Mark [conflict] on every locking entry that shares its directory set with
   the next locking entry. *)
let recompute_groups t =
  let locking = List.filter (fun e -> e.needs_locking) t.rows in
  let rec mark = function
    | [] -> ()
    | [ last ] -> last.conflict <- false
    | a :: (b :: _ as rest) ->
        a.conflict <- a.dir_set = b.dir_set;
        mark rest
  in
  List.iter (fun e -> e.conflict <- false) t.rows;
  mark locking

let prepare_locking t ~lock_all ~extra =
  List.iter
    (fun e ->
      e.needs_locking <- lock_all || e.written || extra e.line;
      e.locked <- false;
      e.hit <- false)
    t.rows;
  recompute_groups t

let to_lock t = List.filter (fun e -> e.needs_locking) t.rows

let entries t = t.rows

let mark_locked e = e.locked <- true

let all_locked t = List.for_all (fun e -> (not e.needs_locking) || e.locked) t.rows

let lock_groups t =
  let locking = to_lock t in
  let rec group acc current = function
    | [] -> List.rev (if current = [] then acc else List.rev current :: acc)
    | e :: rest -> (
        match current with
        | [] -> group acc [ e ] rest
        | c :: _ when c.dir_set = e.dir_set -> group acc (e :: current) rest
        | _ -> group (List.rev current :: acc) [ e ] rest)
  in
  group [] [] locking
