(* A region's extent, widened in place. *)
type span = { mutable lo : int; mutable hi : int }

type t = {
  mutable next : Mem.Addr.t;
  extents : (string, span) Hashtbl.t;
  (* The region widened last and its span: workloads lay a structure out in
     runs of one tag, so most spans skip the table. [""] is never recorded,
     so it marks "none yet". *)
  mutable last_region : string;
  mutable last : span;
}

let words_per_line = Mem.Addr.words_per_line

let create ?(base = 64) () =
  { next = base; extents = Hashtbl.create 8; last_region = ""; last = { lo = 0; hi = -1 } }

let note_span t ~region ~lo ~hi =
  if region <> "" && hi >= lo then begin
    if not (String.equal region t.last_region) then begin
      (t.last <-
         match Hashtbl.find t.extents region with
         | s -> s
         | exception Not_found ->
             let s = { lo; hi } in
             Hashtbl.add t.extents region s;
             s);
      t.last_region <- region
    end;
    let s = t.last in
    s.lo <- Int.min s.lo lo;
    s.hi <- Int.max s.hi hi
  end

let align_line t =
  let rem = t.next mod words_per_line in
  if rem <> 0 then t.next <- t.next + (words_per_line - rem)

let alloc_lines ?(region = "") t n =
  align_line t;
  let a = t.next in
  t.next <- t.next + (n * words_per_line);
  note_span t ~region ~lo:a ~hi:(t.next - 1);
  a

let alloc_line ?region t = alloc_lines ?region t 1

let alloc_words ?(region = "") t n =
  let a = t.next in
  t.next <- t.next + n;
  note_span t ~region ~lo:a ~hi:(t.next - 1);
  a

let used_words t = t.next

let extents t =
  Hashtbl.fold (fun region s acc -> (region, (s.lo, s.hi)) :: acc) t.extents []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let extent t region = Option.map (fun s -> (s.lo, s.hi)) (Hashtbl.find_opt t.extents region)
