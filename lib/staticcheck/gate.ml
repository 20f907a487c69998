type violation =
  | Footprint_escape of {
      ar : string;
      access : [ `Read | `Write ];
      line : Mem.Addr.line;
      bound : string;
    }
  | Decision_escape of { ar : string; decision : Clear.Decision.mode; envelope : string }
  | Conflict_escape of {
      aggressor : string;
      victim : string;
      line : Mem.Addr.line;
      cover : string;
    }

(* A site set flattened to three ints per site: the base register (-1 for
   an absolute extent) and the word extent [lo, hi] relative to it. *)
type sites = int array

type t = { params : Predict.params; fault_drop_store : bool }

(* The workload's static model, and each region's sites split once into the
   may-read and may-write sets, by position in the model. *)
type model = { matrix : Conflict.t; read_sites : sites array; write_sites : sites array }

let create ?(fault_drop_store = false) params = { params; fault_drop_store }

let flatten sites =
  List.concat_map
    (fun (site : Absint.site) ->
      match site.Absint.component with
      | Absint.Cany -> [ -1; min_int; max_int ]
      | Absint.Cwords { lo; hi } | Absint.Cregion { lo; hi; _ } -> [ -1; lo; hi ]
      | Absint.Crel { reg; lo; hi } -> [ reg; lo; hi ])
    sites
  |> Array.of_list

let build t ars =
  let matrix = Conflict.of_ars ~params:t.params ars in
  let sites written (info : Conflict.ar_info) =
    List.filter
      (fun (site : Absint.site) -> site.Absint.written = written)
      info.Conflict.summary.Absint.sites
  in
  let write_sites info =
    match sites true info with
    (* Fault injection for the gate's own tests: pretend the analyzer
       missed the first store site, so a real write escapes the may-write
       set and the gate must catch it. *)
    | _ :: rest when t.fault_drop_store -> flatten rest
    | ws -> flatten ws
  in
  let infos = Conflict.ars matrix in
  {
    matrix;
    read_sites = Array.map (fun info -> flatten (sites false info)) infos;
    write_sites = Array.map write_sites infos;
  }

(* The last model this domain built, with the region list (compared
   physically) and geometry it came from. One entry, so workloads built per
   call cannot grow it; per domain, so pool workers never share it. *)
let last : (Isa.Program.ar list * Predict.params * model) option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let model t ars =
  (* A fault-injecting gate's model must never reach a healthy run, nor a
     healthy one a faulty run; the empty list is the placeholder a checker
     holds until the engine hands over the real one, and caching it would
     evict that. *)
  let shared = (not t.fault_drop_store) && ars <> [] in
  match Domain.DLS.get last with
  | Some (ars', params, m) when shared && ars' == ars && params = t.params -> m
  | _ ->
      let m = build t ars in
      if shared then Domain.DLS.set last (Some (ars, t.params, m));
      m

let missing = "AR not in the workload's list"

(* Is [line] within some site's extent, given the initial register file
   [regs]? *)
let rec covered sites ~regs line k =
  k < Array.length sites
  &&
  let reg = sites.(k) in
  let base = if reg < 0 then 0 else regs.(reg) in
  ((base + sites.(k + 1)) asr 3 <= line && line <= (base + sites.(k + 2)) asr 3)
  || covered sites ~regs line (k + 3)

(* Index of the first of the [n] lines no site covers, or -1. *)
let rec first_escape sites ~regs lines n i =
  if i >= n then -1
  else if covered sites ~regs lines.(i) 0 then first_escape sites ~regs lines n (i + 1)
  else i

(* A region missing from the model has empty may-sets. *)
let sites_at all i = if i < 0 then [||] else all.(i)

let escape m i (ar : Isa.Program.ar) access line =
  let bound =
    if i < 0 then missing
    else
      let s = (Conflict.ars m.matrix).(i).Conflict.summary in
      Printf.sprintf "%d site(s), %s line bound"
        (Array.length (if access = `Read then m.read_sites.(i) else m.write_sites.(i)) / 3)
        (Absint.bound_to_string
           (if access = `Read then s.Absint.read_lines else s.Absint.write_lines))
  in
  Error (Footprint_escape { ar = ar.Isa.Program.name; access; line; bound })

let check_footprint m ~ar ~regs ~reads ~n_reads ~writes ~n_writes =
  let i = Conflict.index m.matrix ar in
  let r = first_escape (sites_at m.read_sites i) ~regs reads n_reads 0 in
  if r >= 0 then escape m i ar `Read reads.(r)
  else
    let w = first_escape (sites_at m.write_sites i) ~regs writes n_writes 0 in
    if w >= 0 then escape m i ar `Write writes.(w) else Ok ()

let check_commit m ~ar ~init_regs ~reads ~writes =
  let regs = Array.make Isa.Instr.num_regs 0 in
  List.iter (fun (r, v) -> regs.(r) <- v) init_regs;
  check_footprint m ~ar ~regs ~reads:(Array.of_list reads) ~n_reads:(List.length reads)
    ~writes:(Array.of_list writes) ~n_writes:(List.length writes)

let check_conflict m ~(aggressor : Isa.Program.ar) ~(victim : Isa.Program.ar) ~line =
  let i = Conflict.index m.matrix aggressor and j = Conflict.index m.matrix victim in
  if i >= 0 && j >= 0 && Conflict.mem (Conflict.may_conflict m.matrix i j) line then Ok ()
  else
    Error
      (Conflict_escape
         {
           aggressor = aggressor.Isa.Program.name;
           victim = victim.Isa.Program.name;
           line;
           cover =
             (if i < 0 || j < 0 then missing
              else Conflict.cover_to_string (Conflict.may_conflict m.matrix i j));
         })

let check_decision m ~(ar : Isa.Program.ar) ~decision =
  let i = Conflict.index m.matrix ar in
  let envelope () = (Conflict.ars m.matrix).(i).Conflict.prediction.Predict.envelope in
  if i >= 0 && Predict.decision_in_envelope (envelope ()) decision then Ok ()
  else
    Error
      (Decision_escape
         {
           ar = ar.Isa.Program.name;
           decision;
           envelope = (if i < 0 then missing else Predict.envelope_name (envelope ()));
         })

let pp_violation ppf = function
  | Footprint_escape { ar; access; line; bound } ->
      Format.fprintf ppf "AR %s: dynamic %s of line %d escapes the static may-%s set (%s)" ar
        (match access with `Read -> "read" | `Write -> "write")
        line
        (match access with `Read -> "read" | `Write -> "write")
        bound
  | Decision_escape { ar; decision; envelope } ->
      Format.fprintf ppf "AR %s: dynamic decision %s outside the static envelope %s" ar
        (Clear.Decision.mode_name decision) envelope
  | Conflict_escape { aggressor; victim; line; cover } ->
      Format.fprintf ppf
        "ARs %s vs %s: dynamic conflict on line %d escapes the static may-conflict cover (%s)"
        aggressor victim line cover
