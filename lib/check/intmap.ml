(* [kv] holds (key, value) pairs; key -1 marks an empty slot. *)
type t = { mutable kv : int array; mutable n : int }

let create () = { kv = Array.make (2 * 64) (-1); n = 0 }

let mask t = (Array.length t.kv / 2) - 1

(* Multiplicative hashing: bits 32 and up of the product pick the slot. *)
let home k mask = ((k * 0x2545F4914F6CDD1D) lsr 32) land mask

(* The key's slot, or the empty slot that ends its probe sequence. *)
let rec probe kv mask k i =
  let x = kv.(2 * i) in
  if x = k || x < 0 then i else probe kv mask k ((i + 1) land mask)

let slot t k =
  let i = probe t.kv (mask t) k (home k (mask t)) in
  if t.kv.(2 * i) < 0 then -1 else i

let value t i = t.kv.((2 * i) + 1)

(* One probe: overwrite a present key when [overwrite], else insert,
   doubling the table first when it would pass half full. *)
let rec bind t k v ~overwrite =
  let m = mask t in
  let i = probe t.kv m k (home k m) in
  if t.kv.(2 * i) >= 0 then (if overwrite then t.kv.((2 * i) + 1) <- v)
  else if 2 * (t.n + 1) > m + 1 then begin
    let old = t.kv in
    t.kv <- Array.make (2 * Array.length old) (-1);
    t.n <- 0;
    for j = 0 to (Array.length old / 2) - 1 do
      if old.(2 * j) >= 0 then bind t old.(2 * j) old.((2 * j) + 1) ~overwrite
    done;
    bind t k v ~overwrite
  end
  else begin
    t.kv.(2 * i) <- k;
    t.kv.((2 * i) + 1) <- v;
    t.n <- t.n + 1
  end

let replace t k v = bind t k v ~overwrite:true

let add t k v = bind t k v ~overwrite:false

(* Backward-shift deletion: pull later members of the probe run into the
   hole whenever their home slot does not lie cyclically in (hole, j]. *)
let remove t k =
  let s = slot t k in
  if s >= 0 then begin
    let kv = t.kv and m = mask t in
    let hole = ref s and j = ref ((s + 1) land m) in
    while kv.(2 * !j) >= 0 do
      let h = home kv.(2 * !j) m in
      if (h - !hole) land m = 0 || (h - !hole) land m > (!j - !hole) land m then begin
        kv.(2 * !hole) <- kv.(2 * !j);
        kv.((2 * !hole) + 1) <- kv.((2 * !j) + 1);
        hole := !j
      end;
      j := (!j + 1) land m
    done;
    kv.(2 * !hole) <- -1;
    t.n <- t.n - 1
  end

let iter t f =
  for i = 0 to mask t do
    if t.kv.(2 * i) >= 0 then f t.kv.(2 * i) t.kv.((2 * i) + 1)
  done
