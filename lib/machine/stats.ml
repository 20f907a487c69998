module Counter = Simrt.Counter
module Abort = Check.Abort

type commit_mode = Check.Witness.mode = Speculative | Scl | Nscl | Fallback

let all_commit_modes = [ Speculative; Scl; Nscl; Fallback ]

let mode_index = function Speculative -> 0 | Scl -> 1 | Nscl -> 2 | Fallback -> 3

let cause_index : Abort.cause -> int = function
  | Memory_conflict -> 0
  | Nacked -> 1
  | Explicit_fallback -> 2
  | Other_fallback -> 3
  | Capacity -> 4
  | Scl_deviation -> 5
  | Other -> 6

(* Counters by small non-negative int keys live in int arrays indexed by
   the key (AR id, retry count, cause), grown on demand. Aborts, retired
   and wasted instructions are kept only in their [counters] cells; the
   accessors read them back by name. *)
type t = {
  counters : Counter.set;
  c_aborts : Counter.cell;
  c_instrs : Counter.cell;
  c_wasted_instrs : Counter.cell;
  mutable commits : int;
  commits_by_mode : int array;
  mutable retry_hist : int array; (* non-fallback commits by retry count *)
  mutable fallback_commits : int;
  aborts_by_cause : int array; (* by [cause_index] *)
  mutable total_cycles : int;
  mutable failed_discovery_cycles : int;
  mutable first_aborted : int;
  mutable footprint_stable : int;
  mutable ar_commits : int array; (* by AR id *)
}

let create () =
  let counters = Counter.create_set () in
  {
    counters;
    c_aborts = Counter.cell counters "aborts";
    c_instrs = Counter.cell counters "instrs";
    c_wasted_instrs = Counter.cell counters "wasted_instrs";
    commits = 0;
    commits_by_mode = Array.make 4 0;
    retry_hist = Array.make 8 0;
    fallback_commits = 0;
    aborts_by_cause = Array.make (List.length Abort.all_causes) 0;
    total_cycles = 0;
    failed_discovery_cycles = 0;
    first_aborted = 0;
    footprint_stable = 0;
    ar_commits = Array.make 8 0;
  }

let counters t = t.counters

(* [a] with one more at index [i], grown to hold it if need be. *)
let bump a i =
  let a =
    if i < Array.length a then a
    else begin
      let na = Array.make (Int.max (2 * Array.length a) (i + 1)) 0 in
      Array.blit a 0 na 0 (Array.length a);
      na
    end
  in
  a.(i) <- a.(i) + 1;
  a

let get a i = if i < Array.length a then a.(i) else 0

let note_commit ?ar t ~mode ~retries =
  t.commits <- t.commits + 1;
  t.commits_by_mode.(mode_index mode) <- t.commits_by_mode.(mode_index mode) + 1;
  (match ar with Some id -> t.ar_commits <- bump t.ar_commits id | None -> ());
  match mode with
  | Fallback -> t.fallback_commits <- t.fallback_commits + 1
  | Speculative | Scl | Nscl -> t.retry_hist <- bump t.retry_hist retries

let commits_for_ar t id = get t.ar_commits id

let note_abort t cause =
  Counter.tick t.c_aborts;
  let i = cause_index cause in
  t.aborts_by_cause.(i) <- t.aborts_by_cause.(i) + 1

let note_instr t = Counter.tick t.c_instrs

let note_wasted_instrs t n = Counter.bump t.c_wasted_instrs n

let note_failed_discovery_cycles t n = t.failed_discovery_cycles <- t.failed_discovery_cycles + n

let note_first_abort t ~footprint_stable =
  t.first_aborted <- t.first_aborted + 1;
  if footprint_stable then t.footprint_stable <- t.footprint_stable + 1

let set_total_cycles t n = t.total_cycles <- n

let commits t = t.commits

let commits_in_mode t mode = t.commits_by_mode.(mode_index mode)

let aborts t = Counter.get t.counters "aborts"

let aborts_with_cause t cause = t.aborts_by_cause.(cause_index cause)

let aborts_in_category t cat =
  List.fold_left
    (fun acc cause -> if Abort.category cause = cat then acc + aborts_with_cause t cause else acc)
    0 Abort.all_causes

let aborts_per_commit t =
  if t.commits = 0 then 0.0 else float_of_int (aborts t) /. float_of_int t.commits

let total_cycles t = t.total_cycles

let failed_discovery_cycles t = t.failed_discovery_cycles

let instrs t = Counter.get t.counters "instrs"

let wasted_instrs t = Counter.get t.counters "wasted_instrs"

let commits_with_retries t n = get t.retry_hist n

(* Non-fallback commits after at least [n] retries. *)
let commits_from_retries t n =
  let acc = ref 0 in
  for r = n to Array.length t.retry_hist - 1 do
    acc := !acc + t.retry_hist.(r)
  done;
  !acc

let retried_commits t = commits_from_retries t 1 + t.fallback_commits

let retry_breakdown t =
  let denom = retried_commits t in
  if denom = 0 then (0.0, 0.0, 0.0)
  else begin
    let one = commits_with_retries t 1 in
    let multi = commits_from_retries t 2 in
    let f n = float_of_int n /. float_of_int denom in
    (f one, f multi, f t.fallback_commits)
  end

let ratio n d = if d = 0 then 0.0 else float_of_int n /. float_of_int d

let first_try_ratio t = ratio (commits_with_retries t 0) t.commits

let single_retry_ratio t = ratio (commits_with_retries t 1) t.commits

let fallback_ratio t = ratio t.fallback_commits t.commits

let fig1_ratio t = ratio t.footprint_stable t.first_aborted
