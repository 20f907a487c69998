type row = Cells of string list | Separator

type t = { title : string; columns : string list; mutable rows : row list (* reversed *) }

let create ~title ~columns = { title; columns; rows = [] }

let add_row t cells =
  if List.length cells <> List.length t.columns then
    invalid_arg
      (Printf.sprintf "Table.add_row: %d cells for %d columns" (List.length cells)
         (List.length t.columns));
  t.rows <- Cells cells :: t.rows

let add_separator t = t.rows <- Separator :: t.rows

let widths t =
  let acc = Array.of_list (List.map String.length t.columns) in
  List.iter
    (function
      | Separator -> ()
      | Cells cells -> List.iteri (fun i c -> acc.(i) <- max acc.(i) (String.length c)) cells)
    t.rows;
  acc

let pad s w = s ^ String.make (w - String.length s) ' '

let to_string t =
  let w = widths t in
  let buf = Buffer.create 1024 in
  let line cells =
    List.iteri
      (fun i c ->
        Buffer.add_string buf (if i = 0 then "| " else " | ");
        Buffer.add_string buf (pad c w.(i)))
      cells;
    Buffer.add_string buf " |\n"
  in
  let rule () =
    Array.iteri
      (fun i width ->
        Buffer.add_string buf (if i = 0 then "+" else "+");
        Buffer.add_string buf (String.make (width + 2) '-'))
      w;
    Buffer.add_string buf "+\n"
  in
  Buffer.add_string buf ("== " ^ t.title ^ " ==\n");
  rule ();
  line t.columns;
  rule ();
  (* A separator with no row after it would double the closing rule. *)
  let rec drop_trailing = function Separator :: rest -> drop_trailing rest | rows -> rows in
  List.iter
    (function Separator -> rule () | Cells cells -> line cells)
    (List.rev (drop_trailing t.rows));
  rule ();
  Buffer.contents buf

let print t = print_string (to_string t)

let title t = t.title

let header t = t.columns

let rows t =
  List.rev t.rows
  |> List.filter_map (function Separator -> None | Cells cells -> Some cells)

let f2 x = Printf.sprintf "%.2f" x

let f3 x = Printf.sprintf "%.3f" x

let pct x = Printf.sprintf "%.1f%%" (100.0 *. x)
