type outcome = Committed of { mode : Witness.mode; retries : int } | Aborted of Abort.cause

type event =
  | Attempt_begin of { time : int; core : int; ar : Isa.Program.ar; mode : Witness.mode; attempt : int }
  | Failed_mode of { time : int; core : int }
  | Lock of { time : int; core : int; line : Mem.Addr.line; key : int }
  | Unlock of { time : int; core : int; line : Mem.Addr.line }
  | Attempt_end of { time : int; core : int; outcome : outcome }

type violation = { time : int; core : int; reason : string }

let pp_violation fmt v =
  Format.fprintf fmt "lock-safety violation at t=%d on core %d: %s" v.time v.core v.reason

(* Flat int state, nothing allocated per event unless a violation is
   reported: [holders] maps each line locked right now to its core, and
   each core's held lines are a stack in acquisition order — an unlock is a
   short scan and shift, since attempts hold tens of locks at most. *)
type t = {
  holders : Intmap.t;
  held : int array array;  (* per core; first [n_held.(c)] slots live *)
  n_held : int array;
  last_key : int array;  (* per core, within the current attempt *)
}

let create ~cores =
  {
    holders = Intmap.create ();
    held = Array.init cores (fun _ -> Array.make 8 0);
    n_held = Array.make cores 0;
    last_key = Array.make cores min_int;
  }

let holder t line =
  let s = Intmap.slot t.holders line in
  if s < 0 then -1 else Intmap.value t.holders s

let rec index_of a n line i = if i >= n then -1 else if a.(i) = line then i else index_of a n line (i + 1)

let push_held t core line =
  let a = t.held.(core) and n = t.n_held.(core) in
  let a =
    if n < Array.length a then a
    else begin
      let b = Array.make (2 * n) 0 in
      Array.blit a 0 b 0 n;
      t.held.(core) <- b;
      b
    end
  in
  a.(n) <- line;
  t.n_held.(core) <- n + 1

let drop_held t core line =
  let a = t.held.(core) and n = t.n_held.(core) in
  let i = index_of a n line 0 in
  Array.blit a (i + 1) a i (n - i - 1);
  t.n_held.(core) <- n - 1

let err time core fmt = Printf.ksprintf (fun reason -> Error { time; core; reason }) fmt

let add t = function
  | Attempt_begin { time; core; _ } ->
      let n = t.n_held.(core) in
      if n > 0 then
        err time core "attempt begins while still holding %d line lock(s) from a previous attempt" n
      else begin
        t.last_key.(core) <- min_int;
        Ok ()
      end
  | Lock { time; core; line; key } ->
      let h = holder t line in
      if h = core then err time core "re-locked line %d it already holds" line
      else if h >= 0 then err time core "locked line %d already held by core %d" line h
      else if key < t.last_key.(core) then
        err time core "lock on line %d breaks lexicographic order (key %d after %d)" line key
          t.last_key.(core)
      else begin
        Intmap.add t.holders line core;
        push_held t core line;
        t.last_key.(core) <- key;
        Ok ()
      end
  | Unlock { time; core; line } ->
      let h = holder t line in
      if h = core then begin
        Intmap.remove t.holders line;
        drop_held t core line;
        Ok ()
      end
      else if h >= 0 then err time core "unlocked line %d held by core %d" line h
      else err time core "unlocked line %d that is not locked" line
  | Failed_mode _ -> Ok ()
  | Attempt_end { time; core; _ } ->
      let n = t.n_held.(core) in
      if n > 0 then
        (* the most recently acquired lock still held *)
        err time core "attempt ends with %d unreleased line lock(s) (first: line %d)" n
          t.held.(core).(n - 1)
      else Ok ()

(* Every held lock is on exactly one core's stack, so checking the stacks
   also proves no line is left locked. *)
let finish t =
  let rec go core =
    if core >= Array.length t.n_held then Ok ()
    else if t.n_held.(core) > 0 then
      err max_int core "simulation ended with %d line lock(s) still held" t.n_held.(core)
    else go (core + 1)
  in
  go 0

let check ~cores events =
  let t = create ~cores in
  let fed =
    List.fold_left (fun acc e -> match acc with Error _ -> acc | Ok () -> add t e) (Ok ()) events
  in
  match fed with Error _ as e -> e | Ok () -> finish t
