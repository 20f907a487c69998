let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let median = function
  | [] -> 0.0
  | xs ->
      let a = Array.of_list xs in
      Array.sort Float.compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let trimmed_mean ~trim xs =
  let n = List.length xs in
  if n <= trim then mean xs
  else begin
    let m = median xs in
    let by_distance =
      List.sort (fun a b -> Float.compare (abs_float (a -. m)) (abs_float (b -. m))) xs
    in
    let kept = List.filteri (fun i _ -> i < n - trim) by_distance in
    mean kept
  end

let geomean = function
  | [] -> 0.0
  | xs ->
      let logs = List.map (fun x -> if x <= 0.0 then 0.0 else log x) xs in
      exp (mean logs)

