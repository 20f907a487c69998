type ar = { id : int; name : string; body : Instr.t array; regions : (string * (int * int)) list }

let make_ar ?(regions = []) ~id ~name body =
  (match Instr.validate body with
  | Ok () -> ()
  | Error msg -> invalid_arg (Printf.sprintf "Program.make_ar %s: %s" name msg));
  List.iter
    (fun (r, (lo, hi)) ->
      if r = "" || lo < 0 || hi < lo then
        invalid_arg (Printf.sprintf "Program.make_ar %s: bad extent for region %S" name r))
    regions;
  { id; name; body; regions = List.sort_uniq compare regions }

let build_ar ?regions ~id ~name f =
  let b = Asm.create () in
  f b;
  make_ar ?regions ~id ~name (Asm.assemble b)

let instruction_count ar = Array.length ar.body

let store_count ar =
  Array.fold_left
    (fun n i -> match i with Instr.St _ -> n + 1 | _ -> n)
    0 ar.body

let dedup_sorted xs = List.sort_uniq String.compare xs

let regions_written ar =
  Array.fold_left (fun acc i -> match i with Instr.St { region; _ } -> region :: acc | _ -> acc) [] ar.body
  |> dedup_sorted

let regions_read ar =
  Array.fold_left (fun acc i -> match i with Instr.Ld { region; _ } -> region :: acc | _ -> acc) [] ar.body
  |> dedup_sorted

let pp ppf ar =
  Format.fprintf ppf "@[<v>AR %d (%s):@," ar.id ar.name;
  Array.iteri (fun i instr -> Format.fprintf ppf "  %3d: %a@," i Instr.pp instr) ar.body;
  Format.fprintf ppf "@]"
