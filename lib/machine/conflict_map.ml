(* Cache lines are dense small ints (word address asr 3, bounded by the
   store size), so the per-line reader/writer core bitmasks live in two flat
   line-indexed arrays instead of a hashtable: adds, removals and conflict
   queries are single array accesses with no hashing and no allocation. The
   arrays are sized from the workload's declared memory and grown on demand
   should a line land beyond the hint. Both arrays come from
   {!Simrt.Pagepool}. Capacities are whole multiples of [granule] lines,
   so workloads of nearly equal size (most of the registry's large ones
   are within a few dozen lines of each other) ask for one length and
   reuse each other's arrays; a power-of-two size class would do the same
   but nearly doubles a map sized just past a power of two. *)

type t = { cores : int; mutable readers : int array; mutable writers : int array }

(* What a released map points at: every line reads as held by no core. *)
let released = [||]

let granule = 4096

let take cap = Simrt.Pagepool.take ~len:cap ~fill:0

let create ?(lines = 1024) ~cores () =
  let n = (max 1 lines + granule - 1) / granule * granule in
  { cores; readers = take n; writers = take n }

let release t =
  if t.readers != released then begin
    Simrt.Pagepool.give t.readers;
    Simrt.Pagepool.give t.writers;
    t.readers <- released;
    t.writers <- released
  end

let grow t line =
  let old = Array.length t.readers in
  let cap = ref (max granule (2 * old)) in
  while line >= !cap do
    cap := 2 * !cap
  done;
  let nr = take !cap and nw = take !cap in
  for i = 0 to old - 1 do
    Array.unsafe_set nr i (Array.unsafe_get t.readers i);
    Array.unsafe_set nw i (Array.unsafe_get t.writers i)
  done;
  release t;
  t.readers <- nr;
  t.writers <- nw

let bit core = 1 lsl core

let add_reader t ~core line =
  if line >= Array.length t.readers then grow t line;
  t.readers.(line) <- t.readers.(line) lor bit core

let add_writer t ~core line =
  if line >= Array.length t.readers then grow t line;
  t.writers.(line) <- t.writers.(line) lor bit core

let remove_line t ~core line =
  if line < Array.length t.readers then begin
    let mask = lnot (bit core) in
    t.readers.(line) <- t.readers.(line) land mask;
    t.writers.(line) <- t.writers.(line) land mask
  end

let remove_core t ~core ~lines = List.iter (fun line -> remove_line t ~core line) lines

let readers t line = if line < Array.length t.readers then t.readers.(line) else 0

let writers t line = if line < Array.length t.writers then t.writers.(line) else 0

(* Masks of *other* cores holding the line — the engine's eager conflict
   checks iterate these bitmasks directly rather than materialising victim
   lists. *)
let readers_excl t ~core line = readers t line land lnot (bit core)

let writers_excl t ~core line = writers t line land lnot (bit core)

(* Visit the set bits of a core mask in ascending core order (the same order
   the old list-building interface produced). *)
let iter_cores mask f =
  let m = ref mask and c = ref 0 in
  while !m <> 0 do
    if !m land 1 <> 0 then f !c;
    m := !m lsr 1;
    incr c
  done

let cores_of t mask ~excluding =
  let rec loop c acc =
    if c < 0 then acc
    else loop (c - 1) (if mask land (1 lsl c) <> 0 && c <> excluding then c :: acc else acc)
  in
  loop (t.cores - 1) []

let conflicting_readers t ~core line = cores_of t (readers t line) ~excluding:core

let conflicting_writers t ~core line = cores_of t (writers t line) ~excluding:core

let clear t =
  Array.fill t.readers 0 (Array.length t.readers) 0;
  Array.fill t.writers 0 (Array.length t.writers) 0
