(* Interval bounds are clamped to [neg_inf, inf]; the sentinels mean
   "unbounded on that side", so every arithmetic helper below must map a
   sentinel operand back to a sentinel result for the monotone direction —
   a finite bound derived from a sentinel would claim boundedness the
   concrete program does not have. Any *stored* finite bound is therefore
   strictly smaller than [inf] in magnitude, which is what makes the
   overflow reasoning in [smul]/[Shl] sound on 63-bit native ints. *)
let inf = 1 lsl 50

let neg_inf = -inf

type shape =
  | Bot  (** no value: this program point never executes with this register *)
  | Const  (** a concrete value within [lo, hi] *)
  | Init of Isa.Instr.reg  (** initial value of register [r] plus an offset in [lo, hi] *)
  | Top  (** anything (e.g. a loaded value) *)

type t = { shape : shape; lo : int; hi : int }

let bot = { shape = Bot; lo = 0; hi = 0 }

let top = { shape = Top; lo = 0; hi = 0 }

(* Collapse degenerate intervals: a Const or Init value unbounded on both
   sides carries no information. *)
let make shape lo hi =
  match shape with
  | Bot -> bot
  | Top -> top
  | Const | Init _ -> if lo <= neg_inf && hi >= inf then top else { shape; lo; hi }

let const_ n = make Const n n

let init_ r = make (Init r) 0 0

let is_bot v = v.shape = Bot

let is_finite v =
  match v.shape with Const | Init _ -> v.lo > neg_inf && v.hi < inf | Bot | Top -> false

let singleton v = match v.shape with Const when v.lo = v.hi && is_finite v -> Some v.lo | _ -> None

(* ---------------- sentinel-aware saturating arithmetic ---------------- *)

let clamp x = if x >= inf then inf else if x <= neg_inf then neg_inf else x

let sadd a b =
  if a = neg_inf || b = neg_inf then neg_inf
  else if a = inf || b = inf then inf
  else clamp (a + b)

let sneg a = if a = neg_inf then inf else if a = inf then neg_inf else -a

let ssub a b = sadd a (sneg b)

(* Saturate well before the clamp range so finite*finite never overflows a
   63-bit int: |a|,|b| <= 2^25 keeps the product under 2^50 = inf. *)
let mul_cap = 1 lsl 25

let smul a b =
  if a = 0 || b = 0 then 0
  else if abs a > mul_cap || abs b > mul_cap then if (a > 0) = (b > 0) then inf else neg_inf
  else clamp (a * b)

let spred x = if x = inf || x = neg_inf then x else x - 1

let ssucc x = if x = inf || x = neg_inf then x else x + 1

(* ---------------- lattice ---------------- *)

let equal a b =
  a.shape = b.shape
  && match a.shape with Const | Init _ -> a.lo = b.lo && a.hi = b.hi | Bot | Top -> true

let join a b =
  if is_bot a then b
  else if is_bot b then a
  else
    match (a.shape, b.shape) with
    | Const, Const -> make Const (min a.lo b.lo) (max a.hi b.hi)
    | Init ra, Init rb when ra = rb -> make (Init ra) (min a.lo b.lo) (max a.hi b.hi)
    | _ -> top

(* [prev] is the old state at a merge point, [next] the freshly joined one
   (so next >= prev pointwise); any bound still growing jumps to the
   sentinel, bounding the ascending chain. *)
let widen ~prev ~next =
  if is_bot prev then next
  else
    match (next.shape, prev.shape) with
    | (Const | Init _), _ when next.shape = prev.shape ->
        make next.shape
          (if next.lo < prev.lo then neg_inf else next.lo)
          (if next.hi > prev.hi then inf else next.hi)
    | _ -> next

(* ---------------- transfer functions ---------------- *)

let binop op a b =
  if is_bot a || is_bot b then bot
  else
    let exact () =
      match (singleton a, singleton b) with
      | Some x, Some y -> Some (const_ (Isa.Instr.eval_binop op x y))
      | _ -> None
    in
    match (op : Isa.Instr.binop) with
    | Add -> (
        match (a.shape, b.shape) with
        | Const, Const -> make Const (sadd a.lo b.lo) (sadd a.hi b.hi)
        | Init r, Const | Const, Init r -> make (Init r) (sadd a.lo b.lo) (sadd a.hi b.hi)
        | _ -> top)
    | Sub -> (
        match (a.shape, b.shape) with
        | Const, Const -> make Const (ssub a.lo b.hi) (ssub a.hi b.lo)
        | Init r, Const -> make (Init r) (ssub a.lo b.hi) (ssub a.hi b.lo)
        | Init ra, Init rb when ra = rb ->
            (* same symbolic base cancels *)
            make Const (ssub a.lo b.hi) (ssub a.hi b.lo)
        | _ -> top)
    | Mul -> (
        match (a.shape, b.shape) with
        | Const, Const ->
            let c = [ smul a.lo b.lo; smul a.lo b.hi; smul a.hi b.lo; smul a.hi b.hi ] in
            make Const (List.fold_left min inf c) (List.fold_left max neg_inf c)
        | _ -> top)
    | Min -> (
        match (a.shape, b.shape) with
        | Const, Const -> make Const (min a.lo b.lo) (min a.hi b.hi)
        | _ -> top)
    | Max -> (
        match (a.shape, b.shape) with
        | Const, Const -> make Const (max a.lo b.lo) (max a.hi b.hi)
        | _ -> top)
    | Div -> (
        match (a.shape, b.shape) with
        | Const, Const when b.lo >= 1 ->
            (* b is positive, so a/b is monotone in a and the extremes over b
               lie at b.lo / b.hi; the inf sentinel behaves numerically as a
               huge divisor (quotient ~0), which only shrinks magnitudes. *)
            let lo =
              if a.lo = neg_inf then neg_inf else min (a.lo / b.lo) (a.lo / b.hi)
            and hi = if a.hi = inf then inf else max (a.hi / b.lo) (a.hi / b.hi) in
            make Const lo hi
        | _ -> ( match exact () with Some v -> v | None -> top))
    | Rem -> (
        match (a.shape, b.shape) with
        | Const, Const when b.lo >= 1 ->
            (* |a mod b| <= min (|a|, b-1); sign follows a (OCaml mod). *)
            let lo = max (min a.lo 0) (sneg (spred b.hi))
            and hi = min (max a.hi 0) (spred b.hi) in
            make Const lo hi
        | _ -> ( match exact () with Some v -> v | None -> top))
    | And -> (
        match (a.shape, b.shape) with
        | Const, Const when a.lo >= 0 && b.lo >= 0 -> make Const 0 (min a.hi b.hi)
        | _ -> ( match exact () with Some v -> v | None -> top))
    | Or -> (
        match (a.shape, b.shape) with
        | Const, Const when a.lo >= 0 && b.lo >= 0 ->
            (* no carries: a lor b <= a + b for non-negatives *)
            make Const (max a.lo b.lo) (sadd a.hi b.hi)
        | _ -> ( match exact () with Some v -> v | None -> top))
    | Xor -> (
        match (a.shape, b.shape) with
        | Const, Const when a.lo >= 0 && b.lo >= 0 -> make Const 0 (sadd a.hi b.hi)
        | _ -> ( match exact () with Some v -> v | None -> top))
    | Shl -> (
        match (a.shape, b.shape, singleton b) with
        | Const, Const, Some k ->
            let k = k land 63 in
            if k <= 30 then
              let m = 1 lsl k in
              make Const (smul a.lo m) (smul a.hi m)
            else ( match exact () with Some v -> v | None -> top)
        | _ -> ( match exact () with Some v -> v | None -> top))
    | Shr -> (
        match (a.shape, b.shape, singleton b) with
        | Const, Const, Some k ->
            let k = k land 63 in
            let shr x = if x = inf || x = neg_inf then x else x asr k in
            make Const (shr a.lo) (shr a.hi)
        | _ -> ( match exact () with Some v -> v | None -> top))

(* Refine [a] and [b] under the assumption that [cond a b] holds. Narrowing
   applies only when both values share a comparable context: two Consts, or
   two offsets from the same initial register. A refinement that empties an
   interval signals an infeasible edge; we deliberately return the operands
   unrefined in that case so CFG reachability stays identical to
   [Clear.Analysis] (which never prunes edges) — see DESIGN.md §10. *)
let refine cond a b =
  let comparable =
    match (a.shape, b.shape) with
    | Const, Const -> true
    | Init ra, Init rb -> ra = rb
    | _ -> false
  in
  if not comparable then (a, b)
  else
    let mk v lo hi = make v.shape lo hi in
    let a', b' =
      match (cond : Isa.Instr.cond) with
      | Eq ->
          let lo = max a.lo b.lo and hi = min a.hi b.hi in
          (mk a lo hi, mk b lo hi)
      | Ne -> (a, b)
      | Lt -> (mk a a.lo (min a.hi (spred b.hi)), mk b (max b.lo (ssucc a.lo)) b.hi)
      | Le -> (mk a a.lo (min a.hi b.hi), mk b (max b.lo a.lo) b.hi)
      | Gt -> (mk a (max a.lo (ssucc b.lo)) a.hi, mk b b.lo (min b.hi (spred a.hi)))
      | Ge -> (mk a (max a.lo b.lo) a.hi, mk b b.lo (min b.hi a.hi))
    in
    let empty v = match v.shape with Const | Init _ -> v.lo > v.hi | Bot | Top -> false in
    if empty a' || empty b' then (a, b) else (a', b')

let negate_cond = function
  | Isa.Instr.Eq -> Isa.Instr.Ne
  | Ne -> Eq
  | Lt -> Ge
  | Le -> Gt
  | Gt -> Le
  | Ge -> Lt

(* Membership of a concrete value under a concrete initial-register
   environment: the soundness contract the dynamic gate checks. *)
let mem ~init v x =
  match v.shape with
  | Bot -> false
  | Top -> true
  | Const -> (v.lo = neg_inf || v.lo <= x) && (v.hi = inf || x <= v.hi)
  | Init r ->
      let base = init r in
      (v.lo = neg_inf || base + v.lo <= x) && (v.hi = inf || x <= base + v.hi)

let pp ppf v =
  let pp_bound ppf x =
    if x = inf then Format.fprintf ppf "+oo"
    else if x = neg_inf then Format.fprintf ppf "-oo"
    else Format.fprintf ppf "%d" x
  in
  match v.shape with
  | Bot -> Format.fprintf ppf "bot"
  | Top -> Format.fprintf ppf "top"
  | Const ->
      if v.lo = v.hi then Format.fprintf ppf "%d" v.lo
      else Format.fprintf ppf "[%a,%a]" pp_bound v.lo pp_bound v.hi
  | Init r ->
      if v.lo = 0 && v.hi = 0 then Format.fprintf ppf "init(r%d)" r
      else Format.fprintf ppf "init(r%d)+[%a,%a]" r pp_bound v.lo pp_bound v.hi
