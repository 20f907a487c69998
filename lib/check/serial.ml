type kind = Rw | Ww | Wr

type violation = {
  earlier : Witness.header;
  later : Witness.header;
  line : Mem.Addr.line;
  kind : kind;
  detail : string;
}

let kind_name = function Rw -> "read-stale (RW)" | Ww -> "write-order (WW)" | Wr -> "future-read (WR)"

let pp_violation fmt v =
  Format.fprintf fmt
    "@[<v2>serializability violation on line %d [%s]:@ earlier: %a@ later:   %a@ %s@ cycle: [%a] \
     -> [%a] (commit order) -> [%a] (dependency)@]"
    v.line (kind_name v.kind) Witness.pp_header v.earlier Witness.pp_header v.later v.detail
    Witness.pp_header v.earlier Witness.pp_header v.later Witness.pp_header v.earlier

(* Per-line state: the last committed writer (with the cycle its write became
   visible) and every reader that committed since. Readers before the last
   writer are irrelevant: any conflict they could expose against a future
   writer W would already have fired as an Rw/Ww check when the current
   writer committed after them, or will fire against the current writer's
   visibility which is at least as recent. *)
type line_state = {
  mutable last_writer : (Witness.t * int) option;  (* witness, visibility *)
  mutable readers : (Witness.t * int) list;  (* witness, first-read cycle *)
}

type t = { lines : (Mem.Addr.line, line_state) Hashtbl.t }

let create () = { lines = Hashtbl.create 1024 }

let state t line =
  match Hashtbl.find_opt t.lines line with
  | Some s -> s
  | None ->
      let s = { last_writer = None; readers = [] } in
      Hashtbl.add t.lines line s;
      s

exception Found of violation

let add t (w : Witness.t) =
  try
    (* Reads first: each must not predate the visibility of the last
       committed write to the same line. *)
    List.iter
      (fun (line, tr) ->
        let s = state t line in
        (match s.last_writer with
        | Some (earlier, vis) when tr < vis ->
            raise
              (Found
                 {
                   earlier = Witness.header earlier;
                   later = Witness.header w;
                   line;
                   kind = Rw;
                   detail =
                     Printf.sprintf
                       "later read line %d at t=%d, before earlier's write became visible at t=%d"
                       line tr vis;
                 })
        | _ -> ());
        s.readers <- (w, tr) :: s.readers)
      w.reads;
    (* Writes second: visibility must not precede the last writer's, nor any
       earlier committer's read of the same line. *)
    List.iter
      (fun (line, _first_write) ->
        let s = state t line in
        let vis = Witness.visibility w line in
        (match s.last_writer with
        | Some (earlier, prev_vis) when vis < prev_vis ->
            raise
              (Found
                 {
                   earlier = Witness.header earlier;
                   later = Witness.header w;
                   line;
                   kind = Ww;
                   detail =
                     Printf.sprintf
                       "later's write to line %d became visible at t=%d, before earlier's at t=%d"
                       line vis prev_vis;
                 })
        | _ -> ());
        List.iter
          (fun ((reader : Witness.t), tr) ->
            if reader.seq <> w.seq && tr > vis then
              raise
                (Found
                   {
                     earlier = Witness.header reader;
                     later = Witness.header w;
                     line;
                     kind = Wr;
                     detail =
                       Printf.sprintf
                         "earlier read line %d at t=%d, after later's write became visible at t=%d"
                         line tr vis;
                   }))
          s.readers;
        s.last_writer <- Some (w, vis);
        s.readers <- [])
      w.writes;
    Ok ()
  with Found v -> Error v

let check witnesses =
  let t = create () in
  List.fold_left
    (fun acc w -> match acc with Error _ -> acc | Ok () -> add t w)
    (Ok ()) witnesses
