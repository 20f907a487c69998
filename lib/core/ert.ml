type entry = {
  pc : int;
  mutable is_convertible : bool;
  mutable is_immutable : bool;
  mutable sq_full : int;
}

type slot = { mutable e : entry option; mutable age : int }

type t = { slots : slot array; mutable tick : int }

let sq_full_max = 3 (* 2-bit saturating counter *)

let default_entries = 16

let create ?(entries = default_entries) () =
  if entries <= 0 then invalid_arg "Ert.create: entries must be positive";
  { slots = Array.init entries (fun _ -> { e = None; age = 0 }); tick = 0 }

let bump t slot =
  t.tick <- t.tick + 1;
  slot.age <- t.tick

(* Index of the slot holding [pc], or -1. *)
let find_slot t pc =
  let n = Array.length t.slots in
  let found = ref (-1) and i = ref 0 in
  while !found < 0 && !i < n do
    (match t.slots.(!i).e with Some e when e.pc = pc -> found := !i | Some _ | None -> ());
    incr i
  done;
  !found

let lookup t ~pc =
  let i = find_slot t pc in
  if i < 0 then None
  else begin
    let slot = t.slots.(i) in
    bump t slot;
    slot.e
  end

let lookup_or_insert t ~pc =
  let i = find_slot t pc in
  if i >= 0 then begin
    let slot = t.slots.(i) in
    bump t slot;
    match slot.e with Some e -> e | None -> assert false
  end
  else begin
    (* Prefer an empty slot, otherwise evict LRU. *)
    let victim = ref t.slots.(0) in
    let found_empty = ref false in
    Array.iter
      (fun s ->
        if (not !found_empty) && s.e = None then begin
          victim := s;
          found_empty := true
        end
        else if (not !found_empty) && s.age < !victim.age then victim := s)
      t.slots;
    let e = { pc; is_convertible = true; is_immutable = true; sq_full = 0 } in
    !victim.e <- Some e;
    bump t !victim;
    e
  end

let mark_not_convertible e = e.is_convertible <- false

let mark_not_immutable e = e.is_immutable <- false

let note_sq_full t ~pc =
  let i = find_slot t pc in
  if i >= 0 then
    match t.slots.(i).e with
    | Some e -> if e.sq_full < sq_full_max then e.sq_full <- e.sq_full + 1
    | None -> ()

let note_commit t ~pc =
  let i = find_slot t pc in
  if i >= 0 then
    match t.slots.(i).e with Some e -> if e.sq_full > 0 then e.sq_full <- e.sq_full - 1 | None -> ()

let discovery_enabled e = e.is_convertible && e.sq_full < sq_full_max

let occupancy t = Array.fold_left (fun n s -> match s.e with Some _ -> n + 1 | None -> n) 0 t.slots
