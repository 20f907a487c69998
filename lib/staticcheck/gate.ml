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

(* Per-AR facts, built on the AR's first commit: the summary, its sites
   split once into the may-read and may-write sets, and the decision
   prediction on first use. *)
type entry = {
  ar : Isa.Program.ar;
  summary : Absint.summary;
  read_sites : sites;
  write_sites : sites;
  mutable prediction : Predict.t option;
}

type t = {
  params : Predict.params;
  fault_drop_store : bool;
  memo : entry list array;  (* buckets by [id land (length - 1)] *)
  mutable conflicts : Conflict.t option;  (* built lazily from the first workload seen *)
}

let create ?(fault_drop_store = false) params =
  { params; fault_drop_store; memo = Array.make 64 []; conflicts = None }

let analyze t ar =
  let s = Absint.analyze_ar ar in
  if not t.fault_drop_store then s
  else begin
    (* Fault injection for the gate's own tests: pretend the analyzer
       missed the first store site, so a real write escapes the
       may-write set and the gate must catch it. *)
    let dropped = ref false in
    let sites =
      List.filter
        (fun (site : Absint.site) ->
          if site.Absint.written && not !dropped then begin
            dropped := true;
            false
          end
          else true)
        s.Absint.sites
    in
    { s with Absint.sites }
  end

let flatten written (s : Absint.summary) =
  List.concat_map
    (fun (site : Absint.site) ->
      if site.Absint.written <> written then []
      else
        match site.Absint.component with
        | Absint.Cany -> [ -1; min_int; max_int ]
        | Absint.Cwords { lo; hi } | Absint.Cregion { lo; hi; _ } -> [ -1; lo; hi ]
        | Absint.Crel { reg; lo; hi } -> [ reg; lo; hi ])
    s.Absint.sites
  |> Array.of_list

let same (a : Isa.Program.ar) (b : Isa.Program.ar) =
  a == b || (a.Isa.Program.id = b.Isa.Program.id && String.equal a.Isa.Program.name b.Isa.Program.name)

let rec lookup ar = function
  | [] -> raise Not_found
  | e :: rest -> if same e.ar ar then e else lookup ar rest

(* Memoised per (ar id, name); a hit allocates nothing. *)
let entry t (ar : Isa.Program.ar) =
  let b = ar.Isa.Program.id land (Array.length t.memo - 1) in
  match lookup ar t.memo.(b) with
  | e -> e
  | exception Not_found ->
      let summary = analyze t ar in
      let e =
        {
          ar;
          summary;
          read_sites = flatten false summary;
          write_sites = flatten true summary;
          prediction = None;
        }
      in
      t.memo.(b) <- e :: t.memo.(b);
      e

let summary t ar = (entry t ar).summary

let prediction t ar =
  let e = entry t ar in
  match e.prediction with
  | Some p -> p
  | None ->
      let p = Predict.predict ~params:t.params ~written_regions:[] e.summary in
      e.prediction <- Some p;
      p

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

let escape e (ar : Isa.Program.ar) access sites line =
  Error
    (Footprint_escape
       {
         ar = ar.Isa.Program.name;
         access;
         line;
         bound =
           Printf.sprintf "%d site(s), %s line bound" (Array.length sites)
             (Absint.bound_to_string
                (if access = `Read then e.summary.Absint.read_lines else e.summary.Absint.write_lines));
       })

let check_footprint t ~ar ~regs ~reads ~n_reads ~writes ~n_writes =
  let e = entry t ar in
  let r = first_escape e.read_sites ~regs reads n_reads 0 in
  if r >= 0 then escape e ar `Read e.read_sites reads.(r)
  else
    let w = first_escape e.write_sites ~regs writes n_writes 0 in
    if w >= 0 then escape e ar `Write e.write_sites writes.(w) else Ok ()

let check_commit t ~ar ~init_regs ~reads ~writes =
  let regs = Array.make Isa.Instr.num_regs 0 in
  List.iter (fun (r, v) -> regs.(r) <- v) init_regs;
  check_footprint t ~ar ~regs ~reads:(Array.of_list reads) ~n_reads:(List.length reads)
    ~writes:(Array.of_list writes) ~n_writes:(List.length writes)

let conflict_matrix t ~ars =
  match t.conflicts with
  | Some c -> c
  | None ->
      let c = Conflict.of_ars ~params:t.params ars in
      t.conflicts <- Some c;
      c

let check_conflict t ~ars ~(aggressor : Isa.Program.ar) ~(victim : Isa.Program.ar) ~line =
  let c = conflict_matrix t ~ars in
  let escape cover =
    Error
      (Conflict_escape
         {
           aggressor = aggressor.Isa.Program.name;
           victim = victim.Isa.Program.name;
           line;
           cover;
         })
  in
  match
    Conflict.may_conflict_ids c ~ida:aggressor.Isa.Program.id ~idb:victim.Isa.Program.id
  with
  | Some cover -> if Conflict.mem cover line then Ok () else escape (Conflict.cover_to_string cover)
  | None -> escape "<pair not in matrix>"

let check_decision t ~(ar : Isa.Program.ar) ~decision =
  let p = prediction t ar in
  if Predict.decision_in_envelope p.Predict.envelope decision then Ok ()
  else
    Error
      (Decision_escape
         {
           ar = ar.Isa.Program.name;
           decision;
           envelope = Predict.envelope_name p.Predict.envelope;
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
