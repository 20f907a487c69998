module A = Absint

type cover = Top | Spans of (int * int) array

(* Sort, then merge overlapping or adjacent intervals. *)
let normalize ranges =
  let arr = Array.of_list ranges in
  Array.sort compare arr;
  let out = ref [] in
  Array.iter
    (fun (lo, hi) ->
      match !out with
      | (plo, phi) :: rest when lo <= phi + 1 -> out := (plo, max phi hi) :: rest
      | _ -> out := (lo, hi) :: !out)
    arr;
  Spans (Array.of_list (List.rev !out))

let inter a b =
  match (a, b) with
  | Top, c | c, Top -> c
  | Spans xs, Spans ys ->
      let out = ref [] in
      let i = ref 0 and j = ref 0 in
      while !i < Array.length xs && !j < Array.length ys do
        let xlo, xhi = xs.(!i) and ylo, yhi = ys.(!j) in
        let lo = max xlo ylo and hi = min xhi yhi in
        if lo <= hi then out := (lo, hi) :: !out;
        if xhi < yhi then incr i else incr j
      done;
      Spans (Array.of_list (List.rev !out))

let union a b =
  match (a, b) with
  | Top, _ | _, Top -> Top
  | Spans xs, Spans ys -> normalize (Array.to_list xs @ Array.to_list ys)

let mem cover line =
  match cover with
  | Top -> true
  | Spans s ->
      (* Spans are sorted and disjoint; binary search. *)
      let lo = ref 0 and hi = ref (Array.length s - 1) and found = ref false in
      while (not !found) && !lo <= !hi do
        let m = (!lo + !hi) / 2 in
        let mlo, mhi = s.(m) in
        if line < mlo then hi := m - 1
        else if line > mhi then lo := m + 1
        else found := true
      done;
      !found

let cover_lines = function
  | Top -> None
  | Spans s -> Some (Array.fold_left (fun acc (lo, hi) -> acc + hi - lo + 1) 0 s)

(* The line-interval cover of a site subset, binding each site the way the
   may-conflict matrix must: with no per-op [init] in hand, an init-relative
   [Crel] site is bounded by its region tag's extent when one is declared
   (the same region-containment contract [Cregion] relies on, and the one
   the dynamic conflict gate verifies), and is Top otherwise. *)
let site_span ~regions (s : A.site) =
  let of_words (lo, hi) = if lo < 0 then None else Some (lo asr 3, hi asr 3) in
  match s.A.component with
  | A.Cwords { lo; hi } | A.Cregion { lo; hi; _ } -> of_words (lo, hi)
  | A.Crel _ | A.Cany -> (
      match List.assoc_opt s.A.region regions with
      | Some span -> of_words span
      | None -> None)

let cover_of ~regions sites =
  let spans = List.filter_map (site_span ~regions) sites in
  if List.length spans <> List.length sites then Top else normalize spans

type ar_info = {
  id : int;
  name : string;
  rw : cover;  (** lines any attempt may read or write *)
  w : cover;  (** lines any attempt may write *)
  x : cover;  (** exclusive set: [rw] when CL-capable, else [w] *)
  cl_capable : bool;
}

type t = { ars : ar_info array; pairs : cover array array }

let info_of ~params ~written_regions (ar : Isa.Program.ar) =
  let s = Absint.analyze_ar ar in
  let p = Predict.predict ~params ~written_regions s in
  let regions = s.A.regions in
  let rw = cover_of ~regions s.A.sites in
  let w = cover_of ~regions (List.filter (fun (site : A.site) -> site.A.written) s.A.sites) in
  (* A CL-capable region may run with its whole footprint cacheline-locked:
     a peer merely *reading* one of its read-set lines then conflicts (lock
     acquisition dooms / NACKs target reads too), so its exclusive set is
     the full footprint, not just the writes. *)
  let cl_capable = p.Predict.envelope.Predict.ns_cl || p.Predict.envelope.Predict.s_cl in
  {
    id = ar.Isa.Program.id;
    name = ar.Isa.Program.name;
    rw;
    w;
    x = (if cl_capable then rw else w);
    cl_capable;
  }

(* may_conflict(a, b): lines where simultaneous attempts of [a] and [b] can
   produce a doom / NACK. One side must hold the line exclusively (a
   speculative or fallback write, or any CL-locked footprint line) while the
   other side touches it at all. *)
let pair_cover a b = union (inter a.x b.rw) (inter a.rw b.x)

let of_ars ?(params = Predict.default_params) ars =
  let written_regions = List.concat_map Isa.Program.regions_written ars in
  let infos = Array.of_list (List.map (info_of ~params ~written_regions) ars) in
  let n = Array.length infos in
  let pairs = Array.init n (fun i -> Array.init n (fun j -> pair_cover infos.(i) infos.(j))) in
  { ars = infos; pairs }

let ars t = t.ars

let find_index t ~ar_id =
  let r = ref None in
  Array.iteri (fun i info -> if info.id = ar_id && !r = None then r := Some i) t.ars;
  !r

let may_conflict t i j = t.pairs.(i).(j)

let may_conflict_ids t ~ida ~idb =
  match (find_index t ~ar_id:ida, find_index t ~ar_id:idb) with
  | Some i, Some j -> Some t.pairs.(i).(j)
  | _ -> None

let pp_cover ppf = function
  | Top -> Format.fprintf ppf "T"
  | Spans s ->
      if Array.length s = 0 then Format.fprintf ppf "-"
      else
        Array.iteri
          (fun k (lo, hi) ->
            if k > 0 then Format.fprintf ppf ",";
            if lo = hi then Format.fprintf ppf "%d" lo else Format.fprintf ppf "%d-%d" lo hi)
          s

let cover_to_string c = Format.asprintf "%a" pp_cover c
