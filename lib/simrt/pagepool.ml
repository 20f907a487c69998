(* A Hashtbl from page length to a stack of free pages, one per domain. *)
let free : (int, int array list) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 8)

let take ~len ~fill =
  let pool = Domain.DLS.get free in
  match Hashtbl.find_opt pool len with
  | Some (p :: rest) ->
      Hashtbl.replace pool len rest;
      (* A typed loop compiles to plain stores; [Array.fill] on a
         major-heap block runs the GC's barrier checks on every word. *)
      for i = 0 to len - 1 do
        Array.unsafe_set p i fill
      done;
      p
  | Some [] | None -> Array.make len fill

let give p =
  let pool = Domain.DLS.get free in
  let len = Array.length p in
  Hashtbl.replace pool len (p :: Option.value (Hashtbl.find_opt pool len) ~default:[])

let give_table pages ~empty =
  Array.iteri
    (fun i p ->
      if p != empty then begin
        pages.(i) <- empty;
        give p
      end)
    pages
