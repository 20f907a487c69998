(* A struct-of-arrays binary heap over int keys, plus FIFO lanes beside it.

   Every queued event owns a slot of [payloads]; its payload is written
   there once and never moves. Heap position i holds the key
   (times.(i), seqs.(i)) and the event's slot id, so sifting writes only
   ints (no write barrier). Free slot ids form a stack, so an event popped
   and rescheduled at once gets its own slot back and its payload is not
   written again. [pop_min] hands back the payload alone, so a push/pop
   cycle with an immediate payload allocates nothing, and [replace_min]
   does a pop and a push in one sift. Sifts move a hole rather than
   swapping.

   A lane is a ring of (time, seq, slot) entries appended in nondecreasing
   time order. Every key, heap or lane, takes its seq from the one
   [next_seq] counter, so a lane's keys are (time, seq)-sorted front to
   back and its head is its least key. The queue's least key is therefore
   the least of the heap root and the lane heads; [top] names the source
   that holds it and is kept current by every mutation, so the read side is
   one branch. Lane heads are mirrored in [head_times]/[head_seqs] (an
   empty lane reads (max_int, max_int), which no real key reaches: seqs are
   < max_int). *)

type lane = int

type ring = {
  mutable r_times : int array;
  mutable r_seqs : int array;
  mutable r_slots : int array;
  mutable first : int; (* ring index of the head *)
  mutable len : int;
}

type 'a t = {
  mutable times : int array;
  mutable seqs : int array;
  mutable slots : int array; (* heap position -> payload slot *)
  mutable size : int; (* heap positions in use *)
  mutable payloads : 'a array; (* by slot *)
  mutable free : int array; (* [0, nfree): free slot ids *)
  mutable nfree : int;
  mutable next_seq : int;
  mutable rings : ring array; (* by lane *)
  mutable head_times : int array; (* by lane *)
  mutable head_seqs : int array;
  mutable top : int; (* [in_heap] or the lane holding the least key *)
  mutable count : int; (* heap size plus every lane's length *)
}

let in_heap = -1

let create () =
  {
    times = [||];
    seqs = [||];
    slots = [||];
    size = 0;
    payloads = [||];
    free = [||];
    nfree = 0;
    next_seq = 0;
    rings = [||];
    head_times = [||];
    head_seqs = [||];
    top = in_heap;
    count = 0;
  }

let[@inline] is_empty t = t.count = 0

let length t = t.count

let add_lane t =
  let k = Array.length t.rings in
  t.rings <- Array.append t.rings [| { r_times = [||]; r_seqs = [||]; r_slots = [||]; first = 0; len = 0 } |];
  t.head_times <- Array.append t.head_times [| max_int |];
  t.head_seqs <- Array.append t.head_seqs [| max_int |];
  k

let clear t =
  t.times <- [||];
  t.seqs <- [||];
  t.slots <- [||];
  t.size <- 0;
  t.payloads <- [||];
  t.free <- [||];
  t.nfree <- 0;
  t.next_seq <- 0;
  Array.iter
    (fun r ->
      r.r_times <- [||];
      r.r_seqs <- [||];
      r.r_slots <- [||];
      r.first <- 0;
      r.len <- 0)
    t.rings;
  Array.fill t.head_times 0 (Array.length t.head_times) max_int;
  Array.fill t.head_seqs 0 (Array.length t.head_seqs) max_int;
  t.top <- in_heap;
  t.count <- 0

(* ---- payload slots ---- *)

(* A free slot holding [payload]. When every slot is taken the pool
   doubles, and the new slots are the free ones. *)
let take_slot t payload =
  if t.nfree = 0 then begin
    let cap = Array.length t.payloads in
    let ncap = if cap = 0 then 16 else cap * 2 in
    let payloads = Array.make ncap payload in
    Array.blit t.payloads 0 payloads 0 cap;
    t.payloads <- payloads;
    t.free <- Array.init ncap (fun i -> ncap - 1 - i);
    t.nfree <- ncap - cap
  end;
  let n = t.nfree - 1 in
  t.nfree <- n;
  let slot = Array.unsafe_get t.free n in
  (* A payload rescheduled right after its pop lands in its old slot: skip
     the write barrier. *)
  if Array.unsafe_get t.payloads slot != payload then t.payloads.(slot) <- payload;
  slot

let release_slot t slot =
  Array.unsafe_set t.free t.nfree slot;
  t.nfree <- t.nfree + 1

(* ---- the least key ---- *)

(* Point [top] at the least of the heap root and the lane heads. *)
let settle t =
  let src = ref in_heap and bt = ref max_int and bs = ref max_int in
  if t.size > 0 then begin
    bt := Array.unsafe_get t.times 0;
    bs := Array.unsafe_get t.seqs 0
  end;
  let ht = t.head_times and hs = t.head_seqs in
  for k = 0 to Array.length ht - 1 do
    let lt = Array.unsafe_get ht k in
    if lt < !bt || (lt = !bt && Array.unsafe_get hs k < !bs) then begin
      src := k;
      bt := lt;
      bs := Array.unsafe_get hs k
    end
  done;
  t.top <- !src

(* ---- heap ---- *)

let heap_push t ~time ~seq ~slot =
  let cap = Array.length t.times in
  if t.size = cap then begin
    let ncap = if cap = 0 then 16 else cap * 2 in
    let extend a =
      let na = Array.make ncap 0 in
      Array.blit a 0 na 0 cap;
      na
    in
    t.times <- extend t.times;
    t.seqs <- extend t.seqs;
    t.slots <- extend t.slots
  end;
  let times = t.times and seqs = t.seqs and slots = t.slots in
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

(* Remove the root; returns its slot. *)
let heap_pop t =
  let slot = t.slots.(0) in
  let n = t.size - 1 in
  t.size <- n;
  (* Move the last position's entry into the root's hole. *)
  if n > 0 then sift_down t n ~time:t.times.(n) ~seq:t.seqs.(n) ~slot:t.slots.(n);
  slot

(* ---- lanes ---- *)

(* Remove lane [k]'s head; returns its slot. *)
let lane_pop t k =
  let r = t.rings.(k) in
  let i = r.first in
  let slot = r.r_slots.(i) in
  r.first <- (i + 1) land (Array.length r.r_times - 1);
  r.len <- r.len - 1;
  if r.len > 0 then begin
    t.head_times.(k) <- r.r_times.(r.first);
    t.head_seqs.(k) <- r.r_seqs.(r.first)
  end
  else begin
    t.head_times.(k) <- max_int;
    t.head_seqs.(k) <- max_int
  end;
  slot

(* Time of lane [r]'s last event; [r] must be non-empty. *)
let lane_tail r = r.r_times.((r.first + r.len - 1) land (Array.length r.r_times - 1))

(* Add an entry at lane [k]'s tail; into an empty lane, it is the head. *)
let lane_push t k ~time ~seq ~slot =
  let r = t.rings.(k) in
  let cap = Array.length r.r_times in
  if r.len = cap then begin
    (* Unroll into a ring twice the size (capacities are powers of two). *)
    let ncap = if cap = 0 then 8 else cap * 2 in
    let unroll a =
      let na = Array.make ncap 0 in
      for i = 0 to r.len - 1 do
        na.(i) <- a.((r.first + i) land (cap - 1))
      done;
      na
    in
    r.r_times <- unroll r.r_times;
    r.r_seqs <- unroll r.r_seqs;
    r.r_slots <- unroll r.r_slots;
    r.first <- 0
  end;
  let i = (r.first + r.len) land (Array.length r.r_times - 1) in
  r.r_times.(i) <- time;
  r.r_seqs.(i) <- seq;
  r.r_slots.(i) <- slot;
  r.len <- r.len + 1;
  if r.len = 1 then begin
    t.head_times.(k) <- time;
    t.head_seqs.(k) <- seq
  end

(* ---- the merged view ---- *)

let push t ~time payload =
  assert (time >= 0);
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  heap_push t ~time ~seq ~slot:(take_slot t payload);
  t.count <- t.count + 1;
  settle t

let append t k ~time payload =
  if time < 0 then invalid_arg "Event_queue.append: negative time";
  let r = t.rings.(k) in
  if r.len > 0 && time < lane_tail r then invalid_arg "Event_queue.append: time below the lane's tail";
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  lane_push t k ~time ~seq ~slot:(take_slot t payload);
  t.count <- t.count + 1;
  settle t

let requeue t k ~time payload =
  if t.count = 0 then invalid_arg "Event_queue.requeue: empty queue";
  if time < 0 then invalid_arg "Event_queue.requeue: negative time";
  let r = t.rings.(k) in
  let src = t.top in
  (* The lane's tail once the earliest event is gone: when that event heads
     this very lane and is alone in it, there is none. *)
  if (if src = k then r.len > 1 else r.len > 0) && time < lane_tail r then
    invalid_arg "Event_queue.requeue: time below the lane's tail";
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  if src = k then begin
    (* Rotate: the head's entry moves to the tail, slot and all. *)
    let mask = Array.length r.r_times - 1 in
    let first = r.first in
    let slot = Array.unsafe_get r.r_slots first in
    if Array.unsafe_get t.payloads slot != payload then t.payloads.(slot) <- payload;
    let i = (first + r.len) land mask in
    Array.unsafe_set r.r_times i time;
    Array.unsafe_set r.r_seqs i seq;
    Array.unsafe_set r.r_slots i slot;
    let first = (first + 1) land mask in
    r.first <- first;
    Array.unsafe_set t.head_times k (Array.unsafe_get r.r_times first);
    Array.unsafe_set t.head_seqs k (Array.unsafe_get r.r_seqs first)
  end
  else begin
    let slot = if src = in_heap then heap_pop t else lane_pop t src in
    if t.payloads.(slot) != payload then t.payloads.(slot) <- payload;
    lane_push t k ~time ~seq ~slot
  end;
  settle t

let[@inline] min_time t =
  if t.count = 0 then invalid_arg "Event_queue.min_time: empty queue";
  if t.top = in_heap then t.times.(0) else t.head_times.(t.top)

let[@inline] min_payload t =
  if t.count = 0 then invalid_arg "Event_queue.min_payload: empty queue";
  let k = t.top in
  let slot =
    if k = in_heap then t.slots.(0)
    else
      let r = t.rings.(k) in
      r.r_slots.(r.first)
  in
  t.payloads.(slot)

let pop_min t =
  if t.count = 0 then invalid_arg "Event_queue.pop_min: empty queue";
  t.count <- t.count - 1;
  let k = t.top in
  let slot = if k = in_heap then heap_pop t else lane_pop t k in
  release_slot t slot;
  settle t;
  t.payloads.(slot)

let replace_min t ~time payload =
  assert (time >= 0);
  if t.count = 0 then invalid_arg "Event_queue.replace_min: empty queue";
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let k = t.top in
  if k = in_heap then begin
    let slot = t.slots.(0) in
    (* Rescheduling the same payload is the common case: skip the barrier. *)
    if t.payloads.(slot) != payload then t.payloads.(slot) <- payload;
    sift_down t t.size ~time ~seq ~slot
  end
  else begin
    let slot = lane_pop t k in
    if t.payloads.(slot) != payload then t.payloads.(slot) <- payload;
    heap_push t ~time ~seq ~slot
  end;
  settle t

let pop t =
  if t.count = 0 then None
  else begin
    let time = min_time t in
    let payload = pop_min t in
    Some (time, payload)
  end

let peek_time t = if t.count = 0 then None else Some (min_time t)
