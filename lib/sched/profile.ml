module Rng = Simrt.Rng

type think_dist =
  | Default
  | Const of int
  | Uniform of { lo : int; hi : int }
  | Burst of { lo : int; hi : int; heat : float }

type t = {
  name : string;
  description : string;
  think : think_dist;
  hot_cores : int;
  hot_think : think_dist;
  hot_op_mult : int;
  phase_stride : int;
  numa : Mem.Numa.t;
}

let symmetric =
  {
    name = "symmetric";
    description = "uniform cores, legacy pacing (the paper's machine)";
    think = Default;
    hot_cores = 0;
    hot_think = Default;
    hot_op_mult = 1;
    phase_stride = 0;
    numa = Mem.Numa.flat;
  }

let is_symmetric t =
  t.think = Default && t.hot_cores = 0 && t.hot_op_mult = 1 && t.phase_stride = 0
  && Mem.Numa.is_flat t.numa

let is_hot t ~core = core < t.hot_cores

let think_for t ~core = if is_hot t ~core then t.hot_think else t.think

let sample_dist dist ~base rng =
  match dist with
  | Default -> base + Rng.int rng (1 + (base / 2))
  | Const c -> c
  | Uniform { lo; hi } -> Rng.int_in rng lo hi
  | Burst { lo; hi; heat } ->
      (* Inverse-power sampling (same trick as Rng.zipf): u^(1+heat) piles
         mass near 0, so most thinks sit at [lo] with occasional long
         pauses towards [hi]. Clamped so the declared bounds are exact. *)
      let u = Rng.float rng 1.0 in
      let span = float_of_int (hi - lo + 1) in
      let x = lo + int_of_float (span *. (u ** (1.0 +. heat))) in
      if x > hi then hi else if x < lo then lo else x

let dist_bounds dist ~base =
  match dist with
  | Default -> (base, base + (base / 2))
  | Const c -> (c, c)
  | Uniform { lo; hi } | Burst { lo; hi; _ } -> (lo, hi)

let sample_think t ~core ~base rng = sample_dist (think_for t ~core) ~base rng

let think_bounds t ~core ~base = dist_bounds (think_for t ~core) ~base

let start_offset t ~core ~base rng = (t.phase_stride * core) + Rng.int rng (base + 1)

let ops_for t ~core ~base = if is_hot t ~core then base * t.hot_op_mult else base

let total_ops t ~cores ~base =
  let n = ref 0 in
  for core = 0 to cores - 1 do
    n := !n + ops_for t ~core ~base
  done;
  !n

let dist_problems label = function
  | Default -> []
  | Const c -> if c < 0 then [ label ^ ": negative constant think" ] else []
  | Uniform { lo; hi } ->
      if lo < 0 then [ label ^ ": negative lower bound" ]
      else if lo > hi then [ label ^ ": inverted bounds" ]
      else []
  | Burst { lo; hi; heat } ->
      (if lo < 0 then [ label ^ ": negative lower bound" ]
       else if lo > hi then [ label ^ ": inverted bounds" ]
       else [])
      @ if heat < 0.0 then [ label ^ ": negative heat" ] else []

let validate t =
  dist_problems "think" t.think
  @ dist_problems "hot_think" t.hot_think
  @ (if t.hot_cores < 0 then [ "hot_cores: negative" ] else [])
  @ (if t.hot_op_mult < 1 then [ "hot_op_mult: must be >= 1" ] else [])
  @ (if t.phase_stride < 0 then [ "phase_stride: negative" ] else [])
  @ if Mem.Numa.well_formed t.numa then [] else [ "numa: malformed matrix" ]

let dist_name = function
  | Default -> "default"
  | Const c -> Printf.sprintf "const(%d)" c
  | Uniform { lo; hi } -> Printf.sprintf "uniform(%d..%d)" lo hi
  | Burst { lo; hi; heat } -> Printf.sprintf "burst(%d..%d,h%.1f)" lo hi heat
