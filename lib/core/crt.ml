type t = {
  sets : int;
  ways : int;
  tags : int array; (* -1 = empty *)
  age : int array;
  mutable tick : int;
}

let create ?(entries = 64) ?(ways = 8) () =
  if entries <= 0 || ways <= 0 || entries mod ways <> 0 then
    invalid_arg "Crt.create: entries must be a positive multiple of ways";
  let sets = entries / ways in
  { sets; ways; tags = Array.make entries (-1); age = Array.make entries 0; tick = 0 }

let set_of t line = line mod t.sets

(* Index of [line]'s way, or -1. *)
let find t line =
  let base = set_of t line * t.ways in
  let i = ref base and stop = base + t.ways in
  while !i < stop && t.tags.(!i) <> line do
    incr i
  done;
  if !i < stop then !i else -1

let insert t line =
  t.tick <- t.tick + 1;
  let i = find t line in
  if i >= 0 then t.age.(i) <- t.tick
  else begin
    let base = set_of t line * t.ways in
    let victim = ref base in
    let found_empty = ref false in
    for w = 0 to t.ways - 1 do
      let i = base + w in
      if (not !found_empty) && t.tags.(i) = -1 then begin
        victim := i;
        found_empty := true
      end
      else if (not !found_empty) && t.age.(i) < t.age.(!victim) then victim := i
    done;
    t.tags.(!victim) <- line;
    t.age.(!victim) <- t.tick
  end

let mem t line = find t line >= 0

let remove t line =
  let i = find t line in
  if i >= 0 then begin
    t.tags.(i) <- -1;
    t.age.(i) <- 0
  end

let size t = Array.fold_left (fun n tag -> if tag <> -1 then n + 1 else n) 0 t.tags

let clear t =
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  Array.fill t.age 0 (Array.length t.age) 0;
  t.tick <- 0
