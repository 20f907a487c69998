module Counter = Simrt.Counter

type commit_mode = Check.Witness.mode = Speculative | Scl | Nscl | Fallback

let all_commit_modes = [ Speculative; Scl; Nscl; Fallback ]

let mode_index = function Speculative -> 0 | Scl -> 1 | Nscl -> 2 | Fallback -> 3

type t = {
  counters : Counter.set;
  c_aborts : Counter.cell;
  c_instrs : Counter.cell;
  c_wasted_instrs : Counter.cell;
  mutable commits : int;
  commits_by_mode : int array;
  retry_hist : (int, int) Hashtbl.t; (* non-fallback commits by retry count *)
  mutable fallback_commits : int;
  aborts_by_cause : (Abort.cause, int) Hashtbl.t;
  mutable aborts : int;
  mutable total_cycles : int;
  mutable failed_discovery_cycles : int;
  mutable instrs : int;
  mutable wasted_instrs : int;
  mutable first_aborted : int;
  mutable footprint_stable : int;
  ar_commits : (string, int) Hashtbl.t;
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
    retry_hist = Hashtbl.create 16;
    fallback_commits = 0;
    aborts_by_cause = Hashtbl.create 8;
    aborts = 0;
    total_cycles = 0;
    failed_discovery_cycles = 0;
    instrs = 0;
    wasted_instrs = 0;
    first_aborted = 0;
    footprint_stable = 0;
    ar_commits = Hashtbl.create 16;
  }

let counters t = t.counters

let bump tbl key n =
  let v = match Hashtbl.find_opt tbl key with Some v -> v | None -> 0 in
  Hashtbl.replace tbl key (v + n)

let note_commit ?ar t ~mode ~retries =
  t.commits <- t.commits + 1;
  t.commits_by_mode.(mode_index mode) <- t.commits_by_mode.(mode_index mode) + 1;
  (match ar with Some name -> bump t.ar_commits name 1 | None -> ());
  match mode with
  | Fallback -> t.fallback_commits <- t.fallback_commits + 1
  | Speculative | Scl | Nscl -> bump t.retry_hist retries 1

let commits_for_ar t name = match Hashtbl.find_opt t.ar_commits name with Some n -> n | None -> 0

let note_abort t cause =
  t.aborts <- t.aborts + 1;
  Counter.tick t.c_aborts;
  bump t.aborts_by_cause cause 1

let note_instr t =
  t.instrs <- t.instrs + 1;
  Counter.tick t.c_instrs

let note_wasted_instrs t n =
  t.wasted_instrs <- t.wasted_instrs + n;
  Counter.bump t.c_wasted_instrs n

let note_failed_discovery_cycles t n = t.failed_discovery_cycles <- t.failed_discovery_cycles + n

let note_first_abort t ~footprint_stable =
  t.first_aborted <- t.first_aborted + 1;
  if footprint_stable then t.footprint_stable <- t.footprint_stable + 1

let set_total_cycles t n = t.total_cycles <- n

let commits t = t.commits

let commits_in_mode t mode = t.commits_by_mode.(mode_index mode)

let aborts t = t.aborts

let aborts_with_cause t cause = match Hashtbl.find_opt t.aborts_by_cause cause with Some n -> n | None -> 0

let aborts_in_category t cat =
  Hashtbl.fold (fun cause n acc -> if Abort.category cause = cat then acc + n else acc) t.aborts_by_cause 0

let aborts_per_commit t = if t.commits = 0 then 0.0 else float_of_int t.aborts /. float_of_int t.commits

let total_cycles t = t.total_cycles

let failed_discovery_cycles t = t.failed_discovery_cycles

let instrs t = t.instrs

let wasted_instrs t = t.wasted_instrs

let commits_with_retries t n = match Hashtbl.find_opt t.retry_hist n with Some c -> c | None -> 0

let retried_commits t =
  Hashtbl.fold (fun r c acc -> if r >= 1 then acc + c else acc) t.retry_hist 0 + t.fallback_commits

let retry_breakdown t =
  let denom = retried_commits t in
  if denom = 0 then (0.0, 0.0, 0.0)
  else begin
    let one = commits_with_retries t 1 in
    let multi = Hashtbl.fold (fun r c acc -> if r >= 2 then acc + c else acc) t.retry_hist 0 in
    let f n = float_of_int n /. float_of_int denom in
    (f one, f multi, f t.fallback_commits)
  end

let ratio n d = if d = 0 then 0.0 else float_of_int n /. float_of_int d

let first_try_ratio t = ratio (commits_with_retries t 0) t.commits

let single_retry_ratio t = ratio (commits_with_retries t 1) t.commits

let fallback_ratio t = ratio t.fallback_commits t.commits

let fig1_ratio t = ratio t.footprint_stable t.first_aborted
