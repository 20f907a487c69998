type t = {
  mutable data : int array; (* unique members, insertion order *)
  mutable len : int;
  mutable sorted : int array; (* cached ascending view, length = len when valid *)
  mutable sorted_valid : bool;
}

let create ?(hint = 16) () =
  { data = Array.make (max 1 hint) 0; len = 0; sorted = [||]; sorted_valid = false }

let clear t =
  t.len <- 0;
  t.sorted_valid <- false

let size t = t.len

let is_empty t = t.len = 0

(* Position of [x] among the members, or [len] when absent. *)
let index t x =
  let d = t.data and n = t.len in
  let i = ref 0 in
  while !i < n && Array.unsafe_get d !i <> x do
    incr i
  done;
  !i

let mem t x = index t x < t.len

let add t x =
  if not (mem t x) then begin
    if t.len = Array.length t.data then begin
      let nd = Array.make (2 * t.len) 0 in
      Array.blit t.data 0 nd 0 t.len;
      t.data <- nd
    end;
    t.data.(t.len) <- x;
    t.len <- t.len + 1;
    t.sorted_valid <- false
  end

let remove t x =
  let i = index t x in
  if i < t.len then begin
    Array.blit t.data (i + 1) t.data i (t.len - i - 1);
    t.len <- t.len - 1;
    t.sorted_valid <- false
  end

let iter t f =
  for i = 0 to t.len - 1 do
    f (Array.unsafe_get t.data i)
  done

(* Rebuilding into a fresh array (rather than sorting in place) means a
   previously returned view stays valid forever — callers may hold it across
   later mutations (e.g. the Figure 1 footprint comparison). *)
let sorted_view t =
  if not t.sorted_valid then begin
    let a = Array.sub t.data 0 t.len in
    Array.sort (fun (x : int) y -> compare x y) a;
    t.sorted <- a;
    t.sorted_valid <- true
  end;
  t.sorted

let sorted_list t = Array.to_list (sorted_view t)
