(* Counters are named cells. A hot-path owner resolves each name to its
   cell once, at create, and bumps the cell directly; everything that reads
   or combines counters keeps going by name. [reset] zeroes the cells in
   place, so resolved cells stay attached to their set. *)

type cell = int ref

type set = (string, cell) Hashtbl.t

let create_set () = Hashtbl.create 64

let cell set name =
  match Hashtbl.find_opt set name with
  | Some r -> r
  | None ->
      let r = ref 0 in
      Hashtbl.add set name r;
      r

let bump (r : cell) n =
  assert (n >= 0);
  r := !r + n

let tick (r : cell) = r := !r + 1

let add set name n = bump (cell set name) n

let incr set name = add set name 1

let get set name = match Hashtbl.find_opt set name with Some r -> !r | None -> 0

let to_list set =
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) set []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let reset set = Hashtbl.iter (fun _ r -> r := 0) set

let merge_into ~dst src = Hashtbl.iter (fun k r -> add dst k !r) src
