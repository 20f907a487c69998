(* A timing wheel over int keys, plus a small heap for the far future.

   Every queued event owns a slot: its payload sits in [payloads] and its
   link in [next], written once and moved only by relinking. The wheel
   gives each cycle of the window [base, base + wheel) one bucket, a FIFO
   list of slots threaded through [next]; the bucket page holds each
   bucket's head slot at 2b and tail slot at 2b + 1, -1 when it is empty.
   Events at or beyond base + wheel wait in a binary min-heap over
   (time, seq, slot) in parallel int arrays, and seqs are drawn only
   there.

   Invariants, restored by every mutation:
   - bucket events have times in [base, base + wheel), and a bucket holds
     one time, in insertion order;
   - heap events have times >= base + wheel;
   - when the queue is not empty, the bucket of [base] is not empty, so it
     holds the earliest events and [base] is their time.

   Advancing [base] by one opens one cycle at the top of the window; its
   heap events move into the (empty) bucket before anything else can be
   appended there, in (time, seq) order, so the bucket stays in insertion
   order. A push below [base] lowers it and sends the events that fall out
   of the top of the window back to the heap, in bucket order. *)

let wheel = 1024

let mask = wheel - 1

type 'a t = {
  mutable buckets : int array; (* 2 * wheel words, from {!Pagepool} *)
  mutable base : int;
  mutable in_wheel : int; (* events in buckets *)
  mutable count : int; (* in buckets and heap *)
  mutable payloads : 'a array; (* by slot *)
  mutable next : int array; (* by slot: next in its bucket, or in the free list *)
  mutable free : int; (* head of the free-slot list, -1 when none *)
  mutable times : int array; (* heap position -> time, seq, slot *)
  mutable seqs : int array;
  mutable slots : int array;
  mutable size : int; (* heap positions in use *)
  mutable next_seq : int;
}

let create () =
  {
    buckets = Pagepool.take ~len:(2 * wheel) ~fill:(-1);
    base = 0;
    in_wheel = 0;
    count = 0;
    payloads = [||];
    next = [||];
    free = -1;
    times = [||];
    seqs = [||];
    slots = [||];
    size = 0;
    next_seq = 0;
  }

let[@inline] is_empty t = t.count = 0

let length t = t.count

let clear t =
  Array.fill t.buckets 0 (Array.length t.buckets) (-1);
  t.base <- 0;
  t.in_wheel <- 0;
  t.count <- 0;
  t.payloads <- [||];
  t.next <- [||];
  t.free <- -1;
  t.times <- [||];
  t.seqs <- [||];
  t.slots <- [||];
  t.size <- 0;
  t.next_seq <- 0

let release t =
  clear t;
  Pagepool.give t.buckets;
  t.buckets <- [||]

(* ---- payload slots ---- *)

(* A free slot holding [payload]. When every slot is taken the pool
   doubles, and the new slots are the free ones. Slots are reused last in,
   first out, so an event popped and pushed at once gets its own slot. *)
let take_slot t payload =
  if t.free < 0 then begin
    let cap = Array.length t.payloads in
    let ncap = if cap = 0 then 16 else cap * 2 in
    let payloads = Array.make ncap payload in
    Array.blit t.payloads 0 payloads 0 cap;
    t.payloads <- payloads;
    t.next <- Array.init ncap (fun i -> if i < cap then t.next.(i) else if i + 1 < ncap then i + 1 else -1);
    t.free <- cap
  end;
  let slot = t.free in
  t.free <- Array.unsafe_get t.next slot;
  (* Skip the write barrier when the slot already holds the payload. *)
  if Array.unsafe_get t.payloads slot != payload then t.payloads.(slot) <- payload;
  slot

(* ---- overflow heap ---- *)

let heap_push t ~time slot =
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
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let times = t.times and seqs = t.seqs and slots = t.slots in
  (* Sift the hole up from the end while (time, seq) sorts before its
     parent. *)
  let i = ref t.size in
  t.size <- t.size + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    let pt = times.(parent) in
    if time < pt || (time = pt && seq < seqs.(parent)) then begin
      times.(!i) <- pt;
      seqs.(!i) <- seqs.(parent);
      slots.(!i) <- slots.(parent);
      i := parent
    end
    else continue := false
  done;
  times.(!i) <- time;
  seqs.(!i) <- seq;
  slots.(!i) <- slot

(* Remove the root; returns its slot. The last position's entry sifts down
   from the root's hole. *)
let heap_pop t =
  let times = t.times and seqs = t.seqs and slots = t.slots in
  let root = slots.(0) in
  let n = t.size - 1 in
  t.size <- n;
  let time = times.(n) and seq = seqs.(n) and slot = slots.(n) in
  let i = ref 0 in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 in
    if l >= n then continue := false
    else begin
      let r = l + 1 in
      let c = if r < n && (times.(r) < times.(l) || (times.(r) = times.(l) && seqs.(r) < seqs.(l))) then r else l in
      if times.(c) < time || (times.(c) = time && seqs.(c) < seq) then begin
        times.(!i) <- times.(c);
        seqs.(!i) <- seqs.(c);
        slots.(!i) <- slots.(c);
        i := c
      end
      else continue := false
    end
  done;
  if n > 0 then begin
    times.(!i) <- time;
    seqs.(!i) <- seq;
    slots.(!i) <- slot
  end;
  root

(* ---- the wheel ---- *)

(* Link the list [first .. last] (already threaded through [next]) at the
   tail of [time]'s bucket. *)
let[@inline] append_run t ~time first last =
  let b = 2 * (time land mask) in
  let buckets = t.buckets in
  let tail = Array.unsafe_get buckets (b + 1) in
  if Array.unsafe_get buckets b < 0 then Array.unsafe_set buckets b first
  else Array.unsafe_set t.next tail first;
  Array.unsafe_set buckets (b + 1) last;
  Array.unsafe_set t.next last (-1)

(* Move the heap events that the window now covers into their buckets. *)
let drain t =
  while t.size > 0 && t.times.(0) < t.base + wheel do
    let time = t.times.(0) in
    let slot = heap_pop t in
    append_run t ~time slot slot;
    t.in_wheel <- t.in_wheel + 1
  done

(* Lower [base] to [time]: the buckets of times [time + wheel, base +
   wheel) leave the window, and their events go to the heap in bucket
   order, drawing fresh seqs. No heap event shares their times. *)
let lower t time =
  for x = Int.max t.base (time + wheel) to t.base + wheel - 1 do
    let b = 2 * (x land mask) in
    let s = ref t.buckets.(b) in
    t.buckets.(b) <- -1;
    while !s >= 0 do
      let n = t.next.(!s) in
      heap_push t ~time:x !s;
      t.in_wheel <- t.in_wheel - 1;
      s := n
    done
  done;
  t.base <- time

(* Queue the unlinked [slot] at [time]. *)
let place t ~time slot =
  if time < t.base then lower t time;
  if time < t.base + wheel then begin
    append_run t ~time slot slot;
    t.in_wheel <- t.in_wheel + 1
  end
  else heap_push t ~time slot

(* Advance [base] to the earliest event. *)
let settle t =
  if t.in_wheel = 0 then begin
    if t.size > 0 then begin
      t.base <- t.times.(0);
      drain t
    end
  end
  else if Array.unsafe_get t.buckets (2 * (t.base land mask)) < 0 then begin
    let buckets = t.buckets and base = ref (t.base + 1) in
    (* The heap's root enters the window when [base] reaches [enter]. *)
    let enter = ref (if t.size > 0 then t.times.(0) - wheel + 1 else max_int) in
    while !base >= !enter || Array.unsafe_get buckets (2 * (!base land mask)) < 0 do
      if !base >= !enter then begin
        t.base <- !base;
        drain t;
        enter := if t.size > 0 then t.times.(0) - wheel + 1 else max_int
      end
      else incr base
    done;
    t.base <- !base
  end

(* Unlink the earliest event, leaving [base] where it is; returns its
   slot. *)
let[@inline] unlink_min t =
  let b = 2 * (t.base land mask) in
  let slot = Array.unsafe_get t.buckets b in
  Array.unsafe_set t.buckets b (Array.unsafe_get t.next slot);
  t.in_wheel <- t.in_wheel - 1;
  slot

(* ---- the queue ---- *)

let push t ~time payload =
  assert (time >= 0);
  place t ~time (take_slot t payload);
  t.count <- t.count + 1;
  settle t

let[@inline] min_time t =
  if t.count = 0 then invalid_arg "Event_queue.min_time: empty queue";
  t.base

let[@inline] min_payload t =
  if t.count = 0 then invalid_arg "Event_queue.min_payload: empty queue";
  t.payloads.(Array.unsafe_get t.buckets (2 * (t.base land mask)))

let pop_min t =
  if t.count = 0 then invalid_arg "Event_queue.pop_min: empty queue";
  let slot = unlink_min t in
  t.count <- t.count - 1;
  t.next.(slot) <- t.free;
  t.free <- slot;
  settle t;
  t.payloads.(slot)

let replace_min t ~time payload =
  assert (time >= 0);
  if t.count = 0 then invalid_arg "Event_queue.replace_min: empty queue";
  let slot = unlink_min t in
  (* Rescheduling the same payload is the common case: skip the barrier. *)
  if t.payloads.(slot) != payload then t.payloads.(slot) <- payload;
  place t ~time slot;
  settle t

let requeue_run t ~time same =
  assert (time >= 0);
  if t.count = 0 then invalid_arg "Event_queue.requeue_run: empty queue";
  let b = 2 * (t.base land mask) in
  let first = t.buckets.(b) in
  let last = ref first and n = ref 1 in
  let s = ref t.next.(first) in
  while !s >= 0 && same t.payloads.(!s) do
    last := !s;
    incr n;
    s := t.next.(!s)
  done;
  t.buckets.(b) <- !s;
  t.in_wheel <- t.in_wheel - !n;
  if time >= t.base && time < t.base + wheel then begin
    append_run t ~time first !last;
    t.in_wheel <- t.in_wheel + !n
  end
  else begin
    let s = ref first in
    for _ = 1 to !n do
      let nx = t.next.(!s) in
      place t ~time !s;
      s := nx
    done
  end;
  settle t;
  !n

let pop t =
  if t.count = 0 then None
  else begin
    let time = min_time t in
    let payload = pop_min t in
    Some (time, payload)
  end

let peek_time t = if t.count = 0 then None else Some (min_time t)
