(* The backing store is chunked with copy-on-write sharing. A fresh store
   points every chunk slot at one shared all-zero chunk, so creating a
   32 MiB store allocates a pointer table, not 32 MiB — simulations touch
   only their workload's working set, and the old flat [Array.make words 0]
   dominated the whole suite's wall time (page-faulting and zero-filling
   4 M words per simulation).

   [snapshot] freezes the store: it hands out the chunk table as an
   immutable [image] and marks every chunk shared, so both sides clone a
   chunk only when they next write it. Snapshots, replay stores and final
   images of the same run therefore share all untouched chunks physically,
   which [image_diff] exploits to compare runs in O(touched).

   Written chunks come from {!Simrt.Pagepool}; [release] gives back the
   owned ones, the only ones no image can read. *)

let chunk_shift = 12

let chunk_words = 1 lsl chunk_shift (* 4096 words = 32 KiB *)

let chunk_mask = chunk_words - 1

let zero_chunk = Array.make chunk_words 0

type t = {
  words : int;
  chunks : int array array;
  owned : Bytes.t; (* '\001' = privately owned, writable in place *)
  mutable observer : (int -> int -> unit) option;
}

type image = { i_words : int; i_chunks : int array array }

let nchunks words = (words + chunk_words - 1) lsr chunk_shift

let create ~words =
  {
    words;
    chunks = Array.make (nchunks words) zero_chunk;
    owned = Bytes.make (nchunks words) '\000';
    observer = None;
  }

let size t = t.words

let read t a =
  if a < 0 || a >= t.words then
    invalid_arg (Printf.sprintf "Store.read: address %d out of bounds" a);
  (Array.unsafe_get t.chunks (a lsr chunk_shift)).(a land chunk_mask)

(* The first write to chunk [ci] since the store was created or last
   snapshotted gives it a private copy. Kept out of [write], whose common
   case is a chunk already owned. *)
let[@inline never] own_chunk t ci =
  let c = t.chunks.(ci) in
  let n = Simrt.Pagepool.take ~len:chunk_words ~fill:0 in
  (* A typed loop copies with plain stores; [Array.blit] into a major-heap
     block goes through the write barrier per word. *)
  if c != zero_chunk then
    for i = 0 to chunk_words - 1 do
      Array.unsafe_set n i (Array.unsafe_get c i)
    done;
  t.chunks.(ci) <- n;
  Bytes.unsafe_set t.owned ci '\001'

let write t a v =
  if a < 0 || a >= t.words then
    invalid_arg (Printf.sprintf "Store.write: address %d out of bounds" a);
  (match t.observer with None -> () | Some f -> f a v);
  let ci = a lsr chunk_shift in
  if Bytes.unsafe_get t.owned ci = '\000' then own_chunk t ci;
  (Array.unsafe_get t.chunks ci).(a land chunk_mask) <- v

let fill t a ~len v =
  for i = a to a + len - 1 do
    write t i v
  done

let snapshot t =
  Bytes.fill t.owned 0 (Bytes.length t.owned) '\000';
  { i_words = t.words; i_chunks = Array.copy t.chunks }

(* Only owned chunks go back: every other chunk is the zero chunk or
   shared with an image, which must keep reading it. *)
let release t =
  Array.iteri
    (fun ci c ->
      if Bytes.unsafe_get t.owned ci = '\001' then Simrt.Pagepool.give c;
      t.chunks.(ci) <- zero_chunk)
    t.chunks;
  Bytes.fill t.owned 0 (Bytes.length t.owned) '\000'

let of_snapshot img =
  {
    words = img.i_words;
    chunks = Array.copy img.i_chunks;
    owned = Bytes.make (Array.length img.i_chunks) '\000';
    observer = None;
  }

let image_words img = img.i_words

let image_read img a =
  if a < 0 || a >= img.i_words then
    invalid_arg (Printf.sprintf "Store.image_read: address %d out of bounds" a);
  img.i_chunks.(a lsr chunk_shift).(a land chunk_mask)

let image_of_array arr =
  let words = Array.length arr in
  let chunks =
    Array.init (nchunks words) (fun ci ->
        let c = Array.make chunk_words 0 in
        let base = ci lsl chunk_shift in
        Array.blit arr base c 0 (min chunk_words (words - base));
        c)
  in
  { i_words = words; i_chunks = chunks }

let image_to_array img =
  Array.init img.i_words (fun a -> img.i_chunks.(a lsr chunk_shift).(a land chunk_mask))

(* First difference and total differing-word count between two equally sized
   images. Chunks that are physically shared (untouched since a common
   snapshot) are skipped without scanning. *)
let image_diff a b =
  if a.i_words <> b.i_words then invalid_arg "Store.image_diff: image sizes differ";
  let first = ref (-1) and a_val = ref 0 and b_val = ref 0 and differing = ref 0 in
  Array.iteri
    (fun ci ca ->
      let cb = b.i_chunks.(ci) in
      if ca != cb then begin
        let base = ci lsl chunk_shift in
        let limit = min chunk_words (a.i_words - base) in
        for i = 0 to limit - 1 do
          let va = Array.unsafe_get ca i and vb = Array.unsafe_get cb i in
          if va <> vb then begin
            incr differing;
            if !first < 0 then begin
              first := base + i;
              a_val := va;
              b_val := vb
            end
          end
        done
      end)
    a.i_chunks;
  if !differing = 0 then None else Some (!first, !a_val, !b_val, !differing)

let observer t = t.observer

let set_observer t f = t.observer <- f
