(* The repository's gate: every hard bound the evaluation artefacts and the
   online oracle are held to, at a fixed size, with one results file.

     dune exec bench/main.exe -- gate > g.json && mv g.json BENCH_gate.json

   Gates (each failure prints "[gate] FAIL <gate>: ..." and the run exits 1):
     smoke     the smoke suite's figures are identical at jobs 1, jobs N and
               with every simulation oracle-checked (major GC cycles at
               jobs 1 and N are recorded, unbounded)
     sched     the scheduler scenario sweep is oracle-clean, identical at
               jobs 1 and N, and >= 2 scenarios shift the retry mix by
               >= Sched_sweep.material_delta
     paper     the arrayswap paper protocol gives identical artefacts
               cache-cold and cache-warm
     openloop  the default open-loop sweep is identical across jobs, its
               checked points are clean, it has >= 3 loads x >= 2 presets
               with p50/p99/p999, and B's p99 is above C's at peak load
     overhead  the 500k-request open-loop point, one fresh clear_sim process
               per side: stats identical with checking on, checked/plain
               child CPU <= 1.4x (best of 3 alternating pairs), >= 10^7
               events, 0 < peak live lines <= 4096, retired > 0

   The smoke gate runs first and alone, so its jobs-N wall time and
   pool.speedup see an idle host. The overhead pairs then run in a second
   domain while the other in-process gates run: their cost is child CPU
   time, which those gates do not enter.

   Stdout gets the results: a host block and one name/workload/value/unit
   row per metric. Stderr gets progress and drift against the committed
   BENCH_gate.json in the working directory. A deterministic row warns on
   any change; a timing taken 3 times warns outside the committed run's
   min-max; other rows are recorded only. No warning fails the run. *)

module Experiments = Clear_repro.Experiments
module Sched_sweep = Clear_repro.Sched_sweep
module Sweep = Openloop.Sweep
module Driver = Openloop.Driver
module J = Report.Json

exception Failed of string

let fail fmt = Printf.ksprintf (fun m -> raise (Failed m)) fmt

let log fmt = Printf.ksprintf (fun m -> Printf.eprintf "[gate] %s\n%!" m) fmt

(* How a row is compared with the committed run. *)
type drift = Exact | Band of float * float | Record

type row = { name : string; workload : string; value : float; unit_ : string; drift : drift }

let row ?(drift = Record) name workload unit_ value = { name; workload; value; unit_; drift }

let jobs = min 4 (Domain.recommended_domain_count ())

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, 1000. *. (Unix.gettimeofday () -. t0))

(* Every suite-derived artefact, rendered: what neither a job count, the
   oracle nor a cache hit may change. *)
let figures s =
  Experiments.
    [ fig1 s; fig8 s; fig8_discovery s; fig9 s; fig10 s; fig11 s; fig12 s; fig13 s; headline s ]
  |> List.map Report.Table.to_string
  |> String.concat "\n"

(* Major GC cycles completed while [f] ran, on every domain. *)
let major_collections f =
  let before = (Gc.quick_stat ()).Gc.major_collections in
  let r = f () in
  (r, (Gc.quick_stat ()).Gc.major_collections - before)

let smoke () =
  let opts = Experiments.smoke_options in
  let run ~jobs ~check =
    major_collections (fun () ->
        timed (fun () -> figures (Experiments.run_suite ~jobs ~check opts)))
  in
  let (seq, ms1), major1 = run ~jobs:1 ~check:false in
  let (par, msn), majorn = run ~jobs ~check:false in
  let (checked, msc), _ = run ~jobs ~check:true in
  if par <> seq then fail "figures differ between jobs 1 and jobs %d" jobs;
  if checked <> seq then fail "checking changed the figures";
  [
    row "wall_ms" "smoke-fig8@jobs1" "ms" ms1;
    row "wall_ms" "smoke-fig8@jobsN" "ms" msn;
    row "gc.major_collections" "smoke-fig8@jobs1" "count" (float_of_int major1);
    row "gc.major_collections" "smoke-fig8@jobsN" "count" (float_of_int majorn);
    row "wall_ms" "smoke-fig8@check" "ms" msc;
    row "check.overhead_x" "smoke-fig8" "x" (msc /. msn);
  ]
  @ if jobs > 1 then [ row "pool.speedup" "smoke-fig8" "x" (ms1 /. msn) ] else []

let sched () =
  let run jobs = Sched_sweep.run ~jobs ~check:true Sched_sweep.default_options in
  let r, ms = timed (fun () -> run jobs) in
  let json r = J.to_string (Sched_sweep.to_json r) in
  if json (run 1) <> json r then fail "sweep differs between jobs 1 and jobs %d" jobs;
  let n = r.Sched_sweep.materially_different in
  if n < 2 then
    fail "only %d scenario(s) shift the retry mix by >= %.2f (need >= 2)" n
      Sched_sweep.material_delta;
  [
    row ~drift:Exact "sched.materially_different" "sched" "count" (float_of_int n);
    row "wall_ms" "sched@check" "ms" ms;
  ]

(* The longest in-process gate leaves a core to the overhead children. *)
let paper () =
  let workloads = [ Workloads.Registry.find "arrayswap" ] in
  let jobs = Simrt.Pool.default_jobs () in
  let run () =
    timed (fun () ->
        figures (Experiments.run_suite ~jobs ~cache:true ~workloads Experiments.default_options))
  in
  ignore (Clear_repro.Suite_cache.clear () : int);
  let cold, ms_cold = run () in
  let warm, ms_warm = run () in
  if warm <> cold then fail "cache-warm artefacts differ from cache-cold";
  [
    row "wall_ms" "paper-arrayswap@cold" "ms" ms_cold;
    row "wall_ms" "paper-arrayswap@warm" "ms" ms_warm;
  ]

let openloop () =
  let o1 = { Sweep.default_options with Sweep.jobs = 1; check = true } in
  let on = { o1 with Sweep.jobs } in
  let curve, ms = timed (fun () -> Sweep.run o1) in
  let json o results = J.to_string (Sweep.to_json o results) in
  if json on (Sweep.run on) <> json o1 curve then
    fail "sweep differs between jobs 1 and jobs %d" jobs;
  if not (List.exists (fun (r : Driver.t) -> r.checked) curve) then fail "no point was checked";
  if List.exists (fun (r : Driver.t) -> r.checked && not r.oracle_ok) curve then
    fail "a checked point is not oracle-clean";
  let p99 (r : Driver.t) =
    match r.sojourn with
    | Some p -> p.Report.Percentile.p99
    | None -> fail "%s at load %g has no sojourn percentiles" r.preset r.rate
  in
  let presets = List.sort_uniq compare (List.map (fun (r : Driver.t) -> r.preset) curve) in
  if List.length presets < 2 then fail "only %d preset(s) in the curve" (List.length presets);
  List.iter
    (fun p ->
      let n = List.length (List.filter (fun (r : Driver.t) -> r.preset = p) curve) in
      if n < 3 then fail "only %d load point(s) for preset %s" n p)
    presets;
  let peak = List.fold_left (fun m (r : Driver.t) -> Float.max m r.rate) 0. curve in
  let tail p =
    match List.find_opt (fun (r : Driver.t) -> r.preset = p && r.rate = peak) curve with
    | Some r -> p99 r
    | None -> fail "no %s point at peak load %g" p peak
  in
  let b = tail "B" and c = tail "C" in
  if b <= c then fail "baseline p99 %d is not above CLEAR p99 %d at load %g" b c peak;
  List.map
    (fun (r : Driver.t) ->
      row ~drift:Exact ("sim.sojourn_p99_cycles_" ^ r.preset) (Printf.sprintf "openloop@%g" r.rate)
        "cycles" (float_of_int (p99 r)))
    curve
  @ [ row "wall_ms" "openloop" "ms" ms ]

(* Raw text of every value that follows ["key":] in [s]: numbers as written,
   strings unquoted. Enough for the CLI's --json output and for the rows
   this module writes, one object per line. *)
let values_of key s =
  let pat = Printf.sprintf "%S:" key in
  let n = String.length s and m = String.length pat in
  let rec go i acc =
    if i > n - m then List.rev acc
    else if String.sub s i m <> pat then go (i + 1) acc
    else begin
      let j = ref (i + m) in
      while !j < n && not (String.contains ",}\n" s.[!j]) do incr j done;
      let v = String.trim (String.sub s (i + m) (!j - i - m)) in
      let quoted = String.length v >= 2 && v.[0] = '"' in
      let v = if quoted then String.sub v 1 (String.length v - 2) else v in
      go !j (v :: acc)
    end
  in
  go 0 []

(* bench/main.exe and bin/clear_sim.exe share one build tree. *)
let clear_sim =
  Filename.concat (Filename.dirname (Filename.dirname Sys.executable_name)) "bin/clear_sim.exe"

(* Run clear_sim in a fresh process: its stdout and its CPU milliseconds. *)
let child args =
  let out = Filename.temp_file "gate" ".json" in
  let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let null = Unix.openfile Filename.null [ Unix.O_WRONLY ] 0 in
  let cpu () =
    let t = Unix.times () in
    t.Unix.tms_cutime +. t.Unix.tms_cstime
  in
  let before = cpu () in
  let pid = Unix.create_process clear_sim (Array.of_list (clear_sim :: args)) Unix.stdin fd null in
  Unix.close fd;
  Unix.close null;
  let _, status = Unix.waitpid [] pid in
  let ms = 1000. *. (cpu () -. before) in
  let text = In_channel.with_open_bin out In_channel.input_all in
  Sys.remove out;
  if status <> Unix.WEXITED 0 then fail "clear_sim %s did not exit 0" (String.concat " " args);
  (text, ms)

let overhead () =
  let args = [ "openloop"; "--json"; "--loads"; "120"; "--requests"; "500000"; "--jobs"; "1" ] in
  (* Alternating pairs: both sides of one pair see the same ambient load. *)
  let pairs =
    List.init 3 (fun _ ->
        let plain, p = child args in
        let checked, c = child (args @ [ "--check" ]) in
        (plain, checked, p, c))
  in
  let oracle_fields = [ "checked"; "stream"; "oracle_ok"; "check_live_lines"; "check_retired" ] in
  let stats text =
    List.filter
      (fun line -> List.for_all (fun f -> values_of f line = []) oracle_fields)
      (String.split_on_char '\n' text)
  in
  List.iter
    (fun (plain, checked, _, _) ->
      if stats plain <> stats checked then fail "checking perturbed the open-loop stats")
    pairs;
  let ratio (_, _, p, c) = c /. Float.max p 1. in
  let best = List.fold_left (fun a b -> if ratio b < ratio a then b else a) (List.hd pairs) pairs in
  let _, checked, p, c = best in
  let x = ratio best in
  if x > 1.4 then
    fail "checked/plain child CPU %.2fx (%.0f / %.0f ms) exceeds the 1.4x budget" x c p;
  let peak key =
    List.fold_left (fun m v -> Float.max m (float_of_string v)) 0. (values_of key checked)
  in
  let events = peak "events" in
  let live = peak "check_live_lines" and retired = peak "check_retired" in
  if events < 1e7 then fail "only %.0f events (< 10^7)" events;
  if live < 1. || live > 4096. then fail "peak live lines %.0f outside (0, 4096]" live;
  if retired < 1. then fail "nothing retired behind the frontier";
  let band f =
    let xs = List.map f pairs in
    Band (List.fold_left Float.min infinity xs, List.fold_left Float.max neg_infinity xs)
  in
  [
    row ~drift:(band ratio) "check.overhead_x" "openloop-500k" "x" x;
    row ~drift:(band (fun (_, _, p, _) -> p)) "cpu_ms" "openloop-500k@plain" "ms" p;
    row ~drift:(band (fun (_, _, _, c) -> c)) "cpu_ms" "openloop-500k@check" "ms" c;
    row ~drift:Exact "engine.events" "openloop-500k" "count" events;
    row ~drift:Exact "check.peak_live_lines" "openloop-500k" "count" live;
    row ~drift:Exact "check.retired" "openloop-500k" "count" retired;
  ]

let number v = J.to_string (J.Float v)

let guard name gate =
  match gate () with
  | rows ->
      List.iter
        (fun r -> log "%s %s %s %s %s" name r.name r.workload (number r.value) r.unit_)
        rows;
      Ok rows
  | exception Failed msg -> Error (name, msg)
  | exception Clear_repro.Run.Check_failed msg -> Error (name, "oracle violation:\n" ^ msg)
  | exception e -> Error (name, Printexc.to_string e)

let row_json r =
  let drift =
    match r.drift with
    | Exact -> [ ("drift", J.Str "exact") ]
    | Band (lo, hi) -> [ ("drift", J.Str "band"); ("min", J.Float lo); ("max", J.Float hi) ]
    | Record -> [ ("drift", J.Str "none") ]
  in
  J.to_string
    (J.Obj
       ([
          ("name", J.Str r.name);
          ("workload", J.Str r.workload);
          ("value", J.Float r.value);
          ("unit", J.Str r.unit_);
        ]
       @ drift))

let baseline = "BENCH_gate.json"

(* Compare fresh rows with the committed run's; warnings only. *)
let drift rows =
  match In_channel.with_open_bin baseline In_channel.input_all with
  | exception Sys_error _ -> log "drift: no %s in the working directory; nothing compared" baseline
  | text ->
      let committed =
        List.filter_map
          (fun line ->
            match (values_of "name" line, values_of "workload" line, values_of "value" line) with
            | [ n ], [ w ], [ v ] -> Some ((n, w), (v, values_of "min" line, values_of "max" line))
            | _ -> None)
          (String.split_on_char '\n' text)
      in
      let compared = ref 0 and warnings = ref 0 in
      let warn fmt =
        incr warnings;
        Printf.ksprintf (fun m -> Printf.eprintf "::warning ::gate %s\n%!" m) fmt
      in
      List.iter
        (fun r ->
          match List.assoc_opt (r.name, r.workload) committed with
          | None -> ()
          | Some (v, lo, hi) -> (
              incr compared;
              match (r.drift, lo, hi) with
              | Exact, _, _ when number r.value <> v ->
                  warn "%s on %s changed: %s -> %s" r.name r.workload v (number r.value)
              | Band _, [ lo ], [ hi ]
                when r.value < float_of_string lo || r.value > float_of_string hi ->
                  warn "%s on %s: %s outside the committed run's range [%s, %s]" r.name r.workload
                    (number r.value) lo hi
              | _ -> ()))
        rows;
      log "drift: %d row(s) compared with the committed %s (host cores %s), %d warning(s)" !compared
        baseline
        (String.concat "" (values_of "cores" text))
        !warnings

let run () =
  log "%d job(s); the overhead pairs run in child processes after the smoke gate" jobs;
  let smoke = guard "smoke" smoke in
  let overhead = Domain.spawn (fun () -> guard "overhead" overhead) in
  let results =
    List.map
      (fun (name, gate) -> guard name gate)
      [ ("sched", sched); ("openloop", openloop); ("paper", paper) ]
  in
  let results = (smoke :: results) @ [ Domain.join overhead ] in
  let rows = List.concat_map (function Ok rows -> rows | Error _ -> []) results in
  let host =
    J.Obj
      [
        ("cores", J.Int (Domain.recommended_domain_count ()));
        ("jobs", J.Int jobs);
        ("ocaml", J.Str Sys.ocaml_version);
        ("os", J.Str Sys.os_type);
      ]
  in
  Printf.printf "{\n\"schema\": \"clear-sim/gate/v1\",\n\"host\": %s,\n\"metrics\": [\n%s\n]\n}\n"
    (J.to_string host)
    (String.concat ",\n" (List.map row_json rows));
  drift rows;
  let failures = List.filter_map (function Error e -> Some e | Ok _ -> None) results in
  List.iter (fun (name, msg) -> Printf.eprintf "[gate] FAIL %s: %s\n%!" name msg) failures;
  if failures = [] then 0 else 1
