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

let of_samples samples =
  let count = Array.length samples in
  if count = 0 then None
  else begin
    let sorted = Array.copy samples in
    (* Int.compare, not polymorphic compare, and merge sort rather than
       [Array.sort]'s heap sort: this runs once per (config, load) grid
       point over request-count-sized arrays. Equal ints are
       indistinguishable, so stability changes nothing in the result. *)
    Array.stable_sort Int.compare sorted;
    let sum = Array.fold_left (fun acc v -> acc +. float_of_int v) 0.0 sorted in
    Some
      {
        count;
        mean = sum /. float_of_int count;
        max = sorted.(count - 1);
        p50 = percentile sorted 0.50;
        p99 = percentile sorted 0.99;
        p999 = percentile sorted 0.999;
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
