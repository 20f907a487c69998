type t = {
  count : int;
  mean : float;
  max : int;
  p50 : int;
  p99 : int;
  p999 : int;
}

let rank ~count q =
  if count <= 0 then invalid_arg "Percentile.rank: empty sample";
  if q < 0.0 || q > 1.0 then invalid_arg "Percentile.rank: quantile outside [0,1]";
  max 1 (int_of_float (ceil (q *. float_of_int count)))

let percentile sorted q =
  let count = Array.length sorted in
  sorted.(rank ~count q - 1)

(* Rearrange a.(lo .. hi) so that a.(k) holds the value of rank k within it,
   with nothing greater before it and nothing smaller after it
   (quickselect). Partitioning is three-way, so runs of equal samples end a
   round at once. The pivot's position comes from a fixed pseudo-random
   sequence: latency samples arrive nearly sorted under overload, and
   positional pivots (median of first, middle and last) degrade there to
   quadratic time. The result does not depend on the pivots. *)
let select (a : int array) ~lo ~hi k =
  let lo = ref lo and hi = ref hi and seed = ref 0x2545F491 in
  let swap i j =
    let v = Array.unsafe_get a i in
    Array.unsafe_set a i (Array.unsafe_get a j);
    Array.unsafe_set a j v
  in
  while !lo < !hi do
    seed := (!seed * 0x5851F42D4C957F2D) + 0x14057B7EF767814F;
    let pivot = a.(!lo + ((!seed lsr 20) mod (!hi - !lo + 1))) in
    (* [lo, lt) < pivot, [lt, i) = pivot, (gt, hi] > pivot *)
    let lt = ref !lo and i = ref !lo and gt = ref !hi in
    while !i <= !gt do
      let v = Array.unsafe_get a !i in
      if v < pivot then begin
        swap !lt !i;
        incr lt;
        incr i
      end
      else if v > pivot then begin
        swap !i !gt;
        decr gt
      end
      else incr i
    done;
    if k < !lt then hi := !lt - 1 else if k > !gt then lo := !gt + 1 else hi := !lo
  done;
  a.(k)

let of_samples samples =
  let count = Array.length samples in
  if count = 0 then None
  else begin
    (* Linear time: selection instead of a sort. Ranks ascend, and each
       selection leaves everything above its rank to its right, so the next
       one searches only there. This runs once per (config, load) grid
       point over request-count-sized arrays. *)
    let a = Array.copy samples in
    let at q lo =
      let k = rank ~count q - 1 in
      (k, select a ~lo ~hi:(count - 1) k)
    in
    let k50, p50 = at 0.50 0 in
    let k99, p99 = at 0.99 k50 in
    let _, p999 = at 0.999 k99 in
    (* Integer sums are exact (a float sum of ints is too, below 2^53). *)
    let sum = Array.fold_left ( + ) 0 samples in
    Some
      {
        count;
        mean = float_of_int sum /. float_of_int count;
        max = Array.fold_left Int.max min_int samples;
        p50;
        p99;
        p999;
      }
  end

let to_json t =
  Json.Obj
    [
      ("count", Json.Int t.count);
      ("mean", Json.Float t.mean);
      ("max", Json.Int t.max);
      ("p50", Json.Int t.p50);
      ("p99", Json.Int t.p99);
      ("p999", Json.Int t.p999);
    ]
