(* Tags and LRU ages live in pages of whole sets, the {!Store} zero-chunk
   idiom: a fresh cache points every page slot at one shared all-empty page,
   so creating a 16-core machine allocates page tables, not megabytes of
   [-1] tags, and a simulation pays only for the sets it touches. The shared
   page is only ever read (every lookup on it misses), and the first insert
   into a set copies its page. Within a page each set is one block of its
   ways' tags followed by their ages, so an access touches one contiguous
   span of host memory.

   Way lookups return the tag's offset in its page, or -1, so the hit path
   allocates nothing, and [insert] finds the line, the first empty way and
   the LRU way in one pass over the set. *)

(* Words per page, at most: pages are whole sets, a power of two of them. *)
let page_words = 2048

let empty_page = Array.make page_words (-1)

type t = {
  sets : int;
  ways : int;
  page_shift : int; (* log2 sets per page *)
  page_set_mask : int; (* sets per page - 1 *)
  empty : int array; (* shared read-only page of empty tags *)
  pages : int array array;
  mutable tick : int;
}

let create ~sets ~ways =
  if sets <= 0 || sets land (sets - 1) <> 0 then
    invalid_arg "Cache.create: sets must be a positive power of two";
  if ways <= 0 then invalid_arg "Cache.create: ways must be positive";
  let shift = ref 0 in
  while 1 lsl (!shift + 1) <= sets && (1 lsl (!shift + 1)) * 2 * ways <= page_words do
    incr shift
  done;
  let len = (1 lsl !shift) * 2 * ways in
  let empty = if len <= page_words then empty_page else Array.make len (-1) in
  {
    sets;
    ways;
    page_shift = !shift;
    page_set_mask = (1 lsl !shift) - 1;
    empty;
    pages = Array.make (sets lsr !shift) empty;
    tick = 0;
  }

let sets t = t.sets

let ways t = t.ways

let[@inline] set_of t line = line land (t.sets - 1)

let[@inline] page_of t line = Array.unsafe_get t.pages (set_of t line lsr t.page_shift)

(* Offset of [line]'s set block (tags, then ages) in its page. *)
let[@inline] base_of t line = (line land t.page_set_mask) * 2 * t.ways

(* Offset of [line]'s tag in page [p], or -1. *)
let[@inline] find t p line =
  if p == t.empty then -1
  else begin
    let base = base_of t line in
    let stop = base + t.ways in
    let i = ref base in
    while !i < stop && Array.unsafe_get p !i <> line do
      incr i
    done;
    if !i < stop then !i else -1
  end

let mem t line = find t (page_of t line) line >= 0

(* Make tag [i] of page [p] the set's most recently used. *)
let[@inline] bump t p i =
  t.tick <- t.tick + 1;
  Array.unsafe_set p (i + t.ways) t.tick

let touch t line =
  let p = page_of t line in
  let i = find t p line in
  if i >= 0 then bump t p i;
  i >= 0

(* [line]'s page, copied out of the shared empty page first if need be. *)
let own_page t line =
  let pi = set_of t line lsr t.page_shift in
  let p = t.pages.(pi) in
  if p != t.empty then p
  else begin
    let np = Array.make ((t.page_set_mask + 1) * 2 * t.ways) 0 in
    for s = 0 to t.page_set_mask do
      Array.fill np (s * 2 * t.ways) t.ways (-1)
    done;
    t.pages.(pi) <- np;
    np
  end

(* What [place] returns when the line was already present. *)
let present = -2

(* [insert], except that a hit returns [present]. *)
let place t line =
  let p = own_page t line in
  let base = base_of t line in
  let stop = base + t.ways in
  (* One pass: the line itself, else the first empty way, else the least
     recently used way (the first of equals). *)
  let hit = ref (-1) and empty = ref (-1) and lru = ref base in
  let i = ref base in
  while !hit < 0 && !i < stop do
    let tag = Array.unsafe_get p !i in
    if tag = line then hit := !i
    else if tag = -1 then (if !empty < 0 then empty := !i)
    else if Array.unsafe_get p (!i + t.ways) < Array.unsafe_get p (!lru + t.ways) then lru := !i;
    incr i
  done;
  if !hit >= 0 then begin
    bump t p !hit;
    present
  end
  else begin
    let victim = if !empty >= 0 then !empty else !lru in
    let evicted = Array.unsafe_get p victim in
    Array.unsafe_set p victim line;
    bump t p victim;
    evicted
  end

let insert t line =
  let r = place t line in
  if r = present then -1 else r

let fill t line = place t line = present

let invalidate t line =
  let p = page_of t line in
  let i = find t p line in
  if i >= 0 then begin
    p.(i) <- -1;
    p.(i + t.ways) <- 0
  end;
  i >= 0

let lines_in_set_of t line =
  let p = page_of t line in
  let base = base_of t line in
  let n = ref 0 in
  for i = base to base + t.ways - 1 do
    if p.(i) <> -1 then incr n
  done;
  !n

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
          let base = s * 2 * t.ways in
          for i = base to base + t.ways - 1 do
            let tag = Array.unsafe_get p i in
            if tag <> -1 then f tag
          done
        done)
    t.pages

let clear t =
  Array.fill t.pages 0 (Array.length t.pages) t.empty;
  t.tick <- 0
