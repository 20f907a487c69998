(* A struct-of-arrays binary heap over int keys. Heap position i holds the
   key (times.(i), seqs.(i)) and the id of the slot its payload sits in;
   payloads never move once pushed, so sifting writes only ints (no write
   barrier), and a push writes its payload once. Slot ids are recycled
   through [free]: positions [size, capacity) hold exactly the free ids.
   [pop_min] hands back the payload alone, so a push/pop cycle with an
   immediate payload allocates nothing, and [replace_min] does a pop and a
   push in one sift. Sifts move a hole rather than swapping. *)

type 'a t = {
  mutable times : int array;
  mutable seqs : int array;
  mutable slots : int array; (* heap position -> payload slot *)
  mutable free : int array; (* [size, capacity): free slot ids *)
  mutable payloads : 'a array; (* by slot *)
  mutable size : int;
  mutable next_seq : int;
}

let create () =
  { times = [||]; seqs = [||]; slots = [||]; free = [||]; payloads = [||]; size = 0; next_seq = 0 }

let is_empty t = t.size = 0

let length t = t.size

let clear t =
  t.times <- [||];
  t.seqs <- [||];
  t.slots <- [||];
  t.free <- [||];
  t.payloads <- [||];
  t.size <- 0;
  t.next_seq <- 0

let grow t payload =
  let cap = Array.length t.times in
  if t.size = cap then begin
    let ncap = if cap = 0 then 16 else cap * 2 in
    let extend a fill =
      let na = Array.make ncap fill in
      Array.blit a 0 na 0 cap;
      na
    in
    t.times <- extend t.times 0;
    t.seqs <- extend t.seqs 0;
    t.slots <- extend t.slots 0;
    t.payloads <- extend t.payloads payload;
    (* Every slot is in use when the heap is full; the new ones are free. *)
    t.free <- Array.init ncap (fun i -> i)
  end

let push t ~time payload =
  assert (time >= 0);
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  grow t payload;
  let times = t.times and seqs = t.seqs and slots = t.slots in
  let slot = t.free.(t.size) in
  t.payloads.(slot) <- payload;
  (* Sift the hole up from the end while (time, seq) sorts before its
     parent. *)
  let i = ref t.size in
  t.size <- t.size + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    let pt = Array.unsafe_get times parent in
    if time < pt || (time = pt && seq < Array.unsafe_get seqs parent) then begin
      Array.unsafe_set times !i pt;
      Array.unsafe_set seqs !i (Array.unsafe_get seqs parent);
      Array.unsafe_set slots !i (Array.unsafe_get slots parent);
      i := parent
    end
    else continue := false
  done;
  Array.unsafe_set times !i time;
  Array.unsafe_set seqs !i seq;
  Array.unsafe_set slots !i slot

let min_time t =
  if t.size = 0 then invalid_arg "Event_queue.min_time: empty queue";
  t.times.(0)

(* Sift the entry (time, seq, slot) down from the hole at position 0 of a
   heap of [n] positions, and store it where it lands. Child selection
   compares without short-circuit branches: heap order is data-dependent,
   so a branch there is a coin toss for the predictor. *)
let sift_down t n ~time ~seq ~slot =
  let times = t.times and seqs = t.seqs and slots = t.slots in
  let i = ref 0 in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 in
    if l >= n then continue := false
    else begin
      let r = l + 1 in
      let c =
        if r < n then begin
          let tl = Array.unsafe_get times l and tr = Array.unsafe_get times r in
          l
          + (Bool.to_int (tr < tl)
            lor (Bool.to_int (tr = tl) land Bool.to_int (Array.unsafe_get seqs r < Array.unsafe_get seqs l)))
        end
        else l
      in
      let ct = Array.unsafe_get times c in
      if ct < time || (ct = time && Array.unsafe_get seqs c < seq) then begin
        Array.unsafe_set times !i ct;
        Array.unsafe_set seqs !i (Array.unsafe_get seqs c);
        Array.unsafe_set slots !i (Array.unsafe_get slots c);
        i := c
      end
      else continue := false
    end
  done;
  Array.unsafe_set times !i time;
  Array.unsafe_set seqs !i seq;
  Array.unsafe_set slots !i slot

let min_payload t =
  if t.size = 0 then invalid_arg "Event_queue.min_payload: empty queue";
  t.payloads.(t.slots.(0))

let pop_min t =
  if t.size = 0 then invalid_arg "Event_queue.pop_min: empty queue";
  let top = t.slots.(0) in
  let n = t.size - 1 in
  t.size <- n;
  t.free.(n) <- top;
  (* Move the last position's entry into the root's hole. *)
  if n > 0 then sift_down t n ~time:t.times.(n) ~seq:t.seqs.(n) ~slot:t.slots.(n);
  t.payloads.(top)

let replace_min t ~time payload =
  assert (time >= 0);
  if t.size = 0 then invalid_arg "Event_queue.replace_min: empty queue";
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let slot = t.slots.(0) in
  (* Rescheduling the same payload is the common case: skip the barrier. *)
  if t.payloads.(slot) != payload then t.payloads.(slot) <- payload;
  sift_down t t.size ~time ~seq ~slot

let pop t =
  if t.size = 0 then None
  else begin
    let time = t.times.(0) in
    let payload = pop_min t in
    Some (time, payload)
  end

let peek_time t = if t.size = 0 then None else Some t.times.(0)

let pop_until t ~time:horizon =
  (* One [pop] per drained event, but no per-event [peek] round-trips: the
     windowed PDES driver calls this once per window instead of peeking
     before every pop. *)
  let rec drain acc =
    if t.size = 0 || t.times.(0) > horizon then List.rev acc
    else
      let time = t.times.(0) in
      let payload = pop_min t in
      drain ((time, payload) :: acc)
  in
  drain []
