module A = Absint

type params = { sq_entries : int; rob_entries : int; l1_sets : int; l1_ways : int; dir_sets : int }

let params_of ~sq_entries ~rob_entries (mp : Mem.Params.t) =
  {
    sq_entries;
    rob_entries;
    l1_sets = mp.Mem.Params.l1_sets;
    l1_ways = mp.Mem.Params.l1_ways;
    dir_sets = mp.Mem.Params.dir_sets;
  }

type fit = Fits | May_overflow

let fit_name = function Fits -> "fits" | May_overflow -> "may overflow"

type envelope = { ns_cl : bool; s_cl : bool; spec_retry : bool; fallback_only : bool }

type t = {
  summary : A.summary;
  classification : Clear.Analysis.classification;
  alt_fit : fit;
  sq_fit : fit;
  lock_fit : fit;
  crt_fit : fit;
  window_fit : fit;
  lock_groups : int option;
  envelope : envelope;
}

(* Enumerate the exact footprint when every site is a bounded absolute
   window; gives set-precise ALT/CRT/L1 checks and the dir-set lock-group
   count. Capped so absurd static windows cannot blow up the analyzer. *)
let concrete_lines ?(cap = 4096) sites =
  let tbl = Hashtbl.create 64 in
  try
    List.iter
      (fun (s : A.site) ->
        match s.component with
        | A.Cwords { lo; hi } ->
            let llo = Mem.Addr.line_of lo and lhi = Mem.Addr.line_of hi in
            if lhi - llo + 1 > cap then raise Exit;
            for l = llo to lhi do
              Hashtbl.replace tbl l ()
            done;
            if Hashtbl.length tbl > cap then raise Exit
        | A.Crel _ | A.Cregion _ | A.Cany -> raise Exit)
      sites;
    Some (List.sort compare (Hashtbl.fold (fun l () acc -> l :: acc) tbl []))
  with Exit -> None

let max_per_set ~set_of lines =
  let counts = Hashtbl.create 16 in
  List.iter
    (fun l ->
      let s = set_of l in
      Hashtbl.replace counts s (1 + Option.value (Hashtbl.find_opt counts s) ~default:0))
    lines;
  Hashtbl.fold (fun _ c m -> max c m) counts 0

let predict ~params ~written_regions (summary : A.summary) =
  let p = params in
  let writes = List.filter (fun (s : A.site) -> s.written) summary.A.sites in
  let lines = concrete_lines summary.A.sites in
  let write_lines = concrete_lines writes in
  (* ALT: distinct footprint lines vs capacity. *)
  let alt_fit =
    let cap = Clear.Alt.default_capacity in
    match lines with
    | Some ls when List.length ls <= cap -> Fits
    | Some _ -> May_overflow
    | None -> if A.bound_le summary.A.footprint_lines cap then Fits else May_overflow
  in
  (* SQ: executed stores vs entries; the engine admits exactly sq_entries
     buffered stores before flagging overflow. *)
  let sq_fit = if A.bound_le summary.A.store_execs p.sq_entries then Fits else May_overflow in
  (* L1 associativity: every footprint subset must be simultaneously
     cacheable, which holds when the whole may-set respects per-set ways. *)
  let lock_fit =
    if alt_fit = Fits then
      match lines with
      | Some ls when max_per_set ~set_of:(fun l -> l land (p.l1_sets - 1)) ls <= p.l1_ways ->
          Fits
      | Some _ -> May_overflow
      | None -> if A.bound_le summary.A.footprint_lines p.l1_ways then Fits else May_overflow
    else May_overflow
  in
  let crt_ways = Clear.Crt.default_ways in
  let crt_sets = Clear.Crt.default_entries / crt_ways in
  let crt_fit =
    match write_lines with
    | Some ls when max_per_set ~set_of:(fun l -> l mod crt_sets) ls <= crt_ways -> Fits
    | Some _ -> May_overflow
    | None -> if A.bound_le summary.A.write_lines crt_ways then Fits else May_overflow
  in
  let window_fit =
    if A.bound_le summary.A.max_instr_execs p.rob_entries && sq_fit = Fits then Fits
    else May_overflow
  in
  let lock_groups =
    Option.map
      (fun ls ->
        List.length
          (List.sort_uniq compare (List.map (fun l -> l land (p.dir_sets - 1)) ls)))
      lines
  in
  (* Decision envelope. [never_fit]: every completed attempt is guaranteed
     to overflow the SQ, so discovery can never finish and the region only
     ever commits speculatively or through the fallback lock.
     [must_lock]: every completed discovery is guaranteed fits+lockable, so
     the decision can never be a plain speculative retry. *)
  let never_fit = summary.A.min_store_execs > p.sq_entries in
  let must_lock = alt_fit = Fits && sq_fit = Fits && lock_fit = Fits in
  let may_indirect = summary.A.indirections <> [] in
  let envelope =
    {
      ns_cl = (not never_fit) && not summary.A.must_indirect;
      s_cl = (not never_fit) && may_indirect;
      spec_retry = not must_lock;
      fallback_only = never_fit;
    }
  in
  {
    summary;
    classification =
      Clear.Analysis.classify_regions ~indirections:summary.A.indirections ~written_regions;
    alt_fit;
    sq_fit;
    lock_fit;
    crt_fit;
    window_fit;
    lock_groups;
    envelope;
  }

let decision_in_envelope env (m : Clear.Decision.mode) =
  match m with
  | Clear.Decision.Ns_cl -> env.ns_cl
  | Clear.Decision.S_cl -> env.s_cl
  | Clear.Decision.Speculative_retry -> env.spec_retry

let envelope_name env =
  if env.fallback_only then "fallback-only"
  else
    let parts =
      (if env.ns_cl then [ "NS-CL" ] else [])
      @ (if env.s_cl then [ "S-CL" ] else [])
      @ if env.spec_retry then [ "spec" ] else []
    in
    if parts = [] then "none" else String.concat "|" parts
