(* Per-line state lives in line-indexed pages of [page_lines] lines, three
   words per line (owner, sharer mask, lock holder), the {!Store} zero-chunk
   idiom again: every page slot starts out pointing at one shared page of
   untouched entries, which is only ever read, and the first mutation of a
   line copies its page. The page table is sized from the store and grows
   (it is a table of pointers, so doubling it is cheap) should a line land
   beyond it. One flat line-indexed array grown by doubling would be simpler
   but holds up to twice the touched span resident; pages keep the footprint
   at the pages actually touched.

   Nothing on the request path allocates: a request returns its coherence
   cost as an immediate int and leaves the cores it invalidated in
   [invalidated] as a bitmask. *)

let page_shift = 12

let page_lines = 1 lsl page_shift

let page_mask = page_lines - 1

(* Entry layout within a page: 3 words per line. *)
let owner_at = 0

let sharers_at = 1

let locker_at = 2

(* A page of untouched entries: no owner, no sharers, unlocked. *)
let fresh_page () =
  let p = Array.make (3 * page_lines) (-1) in
  for l = 0 to page_lines - 1 do
    p.((3 * l) + sharers_at) <- 0
  done;
  p

let empty_page = fresh_page ()

type t = {
  cores : int;
  mutable pages : int array array;
  mutable invalidated : int; (* cores invalidated by the last write or lock *)
  locked : Simrt.Lineset.t array; (* per core, lines it holds locked *)
}

(* msgs lsl 1 lor from_remote *)
type coherence = int

let msgs c = c lsr 1

let from_remote c = c land 1 = 1

let coherence ~msgs ~from_remote = (msgs lsl 1) lor if from_remote then 1 else 0

let create ~cores ~lines =
  if cores <= 0 || cores > 62 then invalid_arg "Directory.create: cores must be in [1, 62]";
  {
    cores;
    pages = Array.make (max 1 ((lines + page_lines - 1) lsr page_shift)) empty_page;
    invalidated = 0;
    locked = Array.init cores (fun _ -> Simrt.Lineset.create ());
  }

let cores t = t.cores

(* Read access: the page holding [line] (possibly the shared empty page)
   and the line's entry offset in it. Lines off the table read as
   untouched. *)
let[@inline] page t line =
  let pi = line asr page_shift in
  if pi >= 0 && pi < Array.length t.pages then Array.unsafe_get t.pages pi else empty_page

let[@inline] slot line = 3 * (line land page_mask)

(* Write access: [line]'s own page, grown into and copied out of the shared
   empty page as needed. Lines are bounded (2^32 lines, 256 GiB of
   simulated memory, far beyond any store) so that a wild line — a
   failed-mode discovery can record a garbage address and lock it later —
   cannot grow the page table without limit. *)
let own_page t line =
  if line lsr 32 <> 0 then
    invalid_arg (Printf.sprintf "Directory: line %d outside the addressable range" line);
  let pi = line lsr page_shift in
  let n = Array.length t.pages in
  if pi >= n then begin
    let np = Array.make (max (2 * n) (pi + 1)) empty_page in
    Array.blit t.pages 0 np 0 n;
    t.pages <- np
  end;
  let p = Array.unsafe_get t.pages pi in
  if p != empty_page then p
  else begin
    let p = fresh_page () in
    t.pages.(pi) <- p;
    p
  end

let bit core = 1 lsl core

let popcount m =
  let m = ref m and n = ref 0 in
  while !m <> 0 do
    m := !m land (!m - 1);
    incr n
  done;
  !n

let read t ~core line =
  let p = page t line and i = slot line in
  let owner = Array.unsafe_get p (i + owner_at) and sharers = Array.unsafe_get p (i + sharers_at) in
  if owner = core || sharers land bit core <> 0 then coherence ~msgs:0 ~from_remote:false
  else begin
    let p = own_page t line in
    if owner >= 0 then begin
      (* Downgrade the remote owner to a sharer; data forwarded core-to-core. *)
      p.(i + sharers_at) <- sharers lor bit owner lor bit core;
      p.(i + owner_at) <- -1;
      coherence ~msgs:3 ~from_remote:true
    end
    else begin
      p.(i + sharers_at) <- sharers lor bit core;
      coherence ~msgs:2 ~from_remote:false
    end
  end

let write t ~core line =
  let p = page t line and i = slot line in
  let owner = Array.unsafe_get p (i + owner_at) and sharers = Array.unsafe_get p (i + sharers_at) in
  if owner = core && sharers = 0 then begin
    t.invalidated <- 0;
    coherence ~msgs:0 ~from_remote:false
  end
  else begin
    let from_remote = owner >= 0 && owner <> core in
    let others = sharers land lnot (bit core) in
    t.invalidated <- (if from_remote then others lor bit owner else others);
    let msgs = 2 + popcount others + if from_remote then 1 else 0 in
    let p = own_page t line in
    p.(i + owner_at) <- core;
    p.(i + sharers_at) <- 0;
    coherence ~msgs ~from_remote
  end

let invalidated t = t.invalidated

let drop_core t ~core line =
  let p = page t line and i = slot line in
  if p != empty_page then begin
    if p.(i + owner_at) = core then p.(i + owner_at) <- -1;
    p.(i + sharers_at) <- p.(i + sharers_at) land lnot (bit core)
  end

let owner t line = (page t line).(slot line + owner_at)

let is_sharer t ~core line =
  let p = page t line and i = slot line in
  p.(i + owner_at) = core || p.(i + sharers_at) land bit core <> 0

let locked_by t line = (page t line).(slot line + locker_at)

let lock t ~core line =
  let holder = locked_by t line in
  if holder = core then begin
    t.invalidated <- 0;
    -1
  end
  else if holder >= 0 then holder
  else begin
    (* Locking implies exclusivity: steal ownership, drop other sharers. *)
    ignore (write t ~core line : coherence);
    (own_page t line).(slot line + locker_at) <- core;
    Simrt.Lineset.add t.locked.(core) line;
    -1
  end

let unlock t ~core line =
  if locked_by t line = core then begin
    (own_page t line).(slot line + locker_at) <- -1;
    Simrt.Lineset.remove t.locked.(core) line
  end

let locked_count t ~core = Simrt.Lineset.size t.locked.(core)

let locked_lines t ~core = Simrt.Lineset.sorted_list t.locked.(core)

let unlock_all t ~core =
  let held = t.locked.(core) in
  Simrt.Lineset.iter held (fun line ->
      if locked_by t line = core then (own_page t line).(slot line + locker_at) <- -1);
  Simrt.Lineset.clear held
