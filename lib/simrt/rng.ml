type t = { mutable state : int64; seed : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed =
  let s = Int64.of_int seed in
  { state = s; seed = s }

let next_int64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let split t salt =
  (* Derive the child seed from the parent's original seed, not its current
     position, so stream identities do not depend on draw order. *)
  let s = mix64 (Int64.add t.seed (Int64.mul (Int64.of_int salt) golden_gamma)) in
  { state = s; seed = s }

let int t bound =
  assert (bound > 0);
  let r = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) in
  r mod bound

let int_in t lo hi =
  assert (lo <= hi);
  lo + int t (hi - lo + 1)

let float t bound =
  let r = Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) in
  r /. 9007199254740992.0 *. bound

let bool t = Int64.logand (next_int64 t) 1L = 1L

let chance t p =
  if p <= 0.0 then false
  else if p >= 1.0 then true
  else float t 1.0 < p

let zipf t ~n ~theta =
  assert (n > 0);
  if theta <= 0.0 then int t n
  else begin
    (* Inverse-power sampling: cheap approximation that concentrates mass on
       low indices, adequate for generating hot spots. *)
    let u = float t 1.0 in
    let x = Float.of_int n *. (u ** (1.0 +. theta)) in
    let i = int_of_float x in
    if i >= n then n - 1 else if i < 0 then 0 else i
  end
