(* Tags live in pages of whole sets, the {!Store} zero-chunk idiom: a fresh
   cache points every page slot at one shared all-empty page, so creating a
   16-core machine allocates page tables, not megabytes of [-1] tags, and a
   simulation pays only for the sets it touches. The shared page is only
   ever read (every lookup on it misses), and the first insert into a set
   copies its page.

   A set is its ways' tags in recency order: the most recently used line at
   way 0, the least recently used valid line last, empty ways (-1) at the
   tail. That is the whole LRU state, so a set is one contiguous span of
   host memory with no ages and no clock. A hit or an insert moves the line
   to way 0 by shifting the ways in front of it back by one; the victim of a
   full set is its last way; a probe stops at the first empty way, as no
   line lies beyond it.

   Owned pages come from {!Simrt.Pagepool}, and [clear] gives them back:
   nothing outside this module holds a page, so a cleared cache is the
   pages' last reader. *)

(* Words per page, at most: pages are whole sets, a power of two of them. *)
let page_words = 2048

let empty_page = Array.make page_words (-1)

type t = {
  set_mask : int; (* sets - 1 *)
  ways : int;
  page_shift : int; (* log2 sets per page *)
  page_set_mask : int; (* sets per page - 1 *)
  empty : int array; (* shared read-only page of empty tags *)
  pages : int array array;
}

let create ~sets ~ways =
  if sets <= 0 || sets land (sets - 1) <> 0 then
    invalid_arg "Cache.create: sets must be a positive power of two";
  if ways <= 0 then invalid_arg "Cache.create: ways must be positive";
  let shift = ref 0 in
  while 1 lsl (!shift + 1) <= sets && (1 lsl (!shift + 1)) * ways <= page_words do
    incr shift
  done;
  let len = (1 lsl !shift) * ways in
  let empty = if len <= page_words then empty_page else Array.make len (-1) in
  {
    set_mask = sets - 1;
    ways;
    page_shift = !shift;
    page_set_mask = (1 lsl !shift) - 1;
    empty;
    pages = Array.make (sets lsr !shift) empty;
  }

let[@inline] set_of t line = line land t.set_mask

let[@inline] page_of t line = Array.unsafe_get t.pages (set_of t line lsr t.page_shift)

(* Offset of [line]'s set (its way 0) in its page. *)
let[@inline] base_of t line = (line land t.page_set_mask) * t.ways

(* The first way in [i, stop) of page [p] that holds [line] or is empty,
   else [stop]. *)
let[@inline] scan p line i stop =
  let i = ref i in
  while
    !i < stop
    &&
    let tag = Array.unsafe_get p !i in
    tag <> line && tag <> -1
  do
    incr i
  done;
  !i

(* Offset of [line]'s tag in page [p], or -1. *)
let[@inline] find t p line =
  let base = base_of t line in
  let stop = base + t.ways in
  let i = scan p line base stop in
  if i < stop && Array.unsafe_get p i = line then i else -1

(* Shift ways [base, i) of page [p] back by one and put [line] at [base].
   The annotation keeps the loop typed: on an ['a array] each store would
   test for a float array and go through [caml_modify]. *)
let[@inline] to_front (p : int array) base i line =
  for j = i downto base + 1 do
    Array.unsafe_set p j (Array.unsafe_get p (j - 1))
  done;
  Array.unsafe_set p base line

let mem t line = find t (page_of t line) line >= 0

let touch t line =
  let p = page_of t line in
  let i = find t p line in
  if i >= 0 then to_front p (base_of t line) i line;
  i >= 0

(* [line]'s page, copied out of the shared empty page first if need be. *)
let own_page t line =
  let pi = set_of t line lsr t.page_shift in
  let p = t.pages.(pi) in
  if p != t.empty then p
  else begin
    let np = Simrt.Pagepool.take ~len:((t.page_set_mask + 1) * t.ways) ~fill:(-1) in
    t.pages.(pi) <- np;
    np
  end

(* What [place] returns when the line was already present. *)
let present = -2

(* [insert], except that a hit returns [present]. *)
let place t line =
  let p = own_page t line in
  let base = base_of t line in
  (* The line, the first empty way, or else the last way: the least
     recently used line of a full set. *)
  let i = scan p line base (base + t.ways - 1) in
  let tag = Array.unsafe_get p i in
  to_front p base i line;
  if tag = line then present else tag

let insert t line =
  let r = place t line in
  if r = present then -1 else r

let fill t line = place t line = present

let invalidate t line =
  let p = page_of t line in
  let i = find t p line in
  if i >= 0 then begin
    let last = base_of t line + t.ways - 1 in
    for j = i to last - 1 do
      Array.unsafe_set p j (Array.unsafe_get p (j + 1))
    done;
    Array.unsafe_set p last (-1)
  end;
  i >= 0

let would_fit t lines =
  let per_set = Hashtbl.create 16 in
  List.for_all
    (fun line ->
      let s = set_of t line in
      let n = match Hashtbl.find_opt per_set s with Some r -> r | None -> 0 in
      Hashtbl.replace per_set s (n + 1);
      n + 1 <= t.ways)
    lines

let iter t f =
  Array.iter
    (fun p ->
      if p != t.empty then
        for s = 0 to t.page_set_mask do
          let base = s * t.ways in
          let i = ref base in
          while !i < base + t.ways && Array.unsafe_get p !i <> -1 do
            f (Array.unsafe_get p !i);
            incr i
          done
        done)
    t.pages

let clear t = Simrt.Pagepool.give_table t.pages ~empty:t.empty
