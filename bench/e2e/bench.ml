(* End-to-end benchmark of the simulator: three workloads, end-to-end host
   metrics from untraced runs, per-layer metrics from one traced run per
   workload. README.md in this directory is the glossary.

     dune exec bench/e2e/bench.exe                       all three, R = 5
     dune exec bench/e2e/bench.exe -- --workload serve   one workload
     dune exec bench/e2e/bench.exe -- --quick            seconds-sized self-test

   Every run is a fresh child process (this executable with --run W), one
   at a time, so peak RSS is per run and the heap starts cold.

   Both forms build on one per-workload measurement: a traced run, then
   untraced runs. The default form adds the untraced runs round-robin over
   the workloads, so host drift hits every workload alike, and prints a
   table. With --seconds S it measures one workload, adding runs for about
   S seconds, and prints one JSON object as its last line (the
   BENCHMARK.json contract): end-to-end metrics with --trace 0, per-layer
   with --trace 1. *)

type child = {
  workload : string;
  values : (string, float) Hashtbl.t;
  digests : (string * string) list;
  attempted : int;
  failed : int;
  reasons : string list;
  events : string list;
  clean : bool;  (** the process exited 0 and reported its ops *)
}

(* A value the child did not report is NaN, so it cannot pass for a
   measurement. *)
let value c name = Option.value (Hashtbl.find_opt c.values name) ~default:Float.nan

(* ------------------------------------------------------------------ *)
(* Running children *)

let spawn ~seed ~quick ~traced workload =
  let exe = Sys.executable_name in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let spawn_ns = Spans.now () in
  let args =
    [ exe; "--run"; workload; "--seed"; string_of_int seed; "--spawn-ns"; string_of_int spawn_ns ]
    @ (if quick then [ "--quick" ] else [])
    @ if traced then [ "--traced" ] else []
  in
  let pid = Unix.create_process exe (Array.of_list args) Unix.stdin wr Unix.stderr in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let out = In_channel.input_all ic in
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  let values = Hashtbl.create 64 in
  let digests = ref [] and ops = ref None and reasons = ref [] and events = ref [] in
  List.iter
    (fun line ->
      match String.index_opt line ' ' with
      | None -> ()
      | Some i -> (
          let tag = String.sub line 0 i and rest = String.sub line (i + 1) (String.length line - i - 1) in
          match (tag, String.split_on_char ' ' rest) with
          | "m", [ k; v ] -> Option.iter (Hashtbl.replace values k) (float_of_string_opt v)
          | "d", [ k; v ] -> digests := (k, v) :: !digests
          | "ops", [ a; f ] -> ops := Some (int_of_string a, int_of_string f)
          | "x", _ -> reasons := rest :: !reasons
          | "e", _ -> events := rest :: !events
          | _ -> ()))
    (String.split_on_char '\n' out);
  let expected = Child.expected_ops (if quick then Child.Quick else Child.Full) workload in
  let clean, attempted, failed, reasons =
    match (status, !ops) with
    | Unix.WEXITED 0, Some (a, f) -> (true, a, f, List.rev !reasons)
    | _ -> (false, expected, expected, [ Printf.sprintf "%s child process did not finish cleanly" workload ])
  in
  {
    workload;
    values;
    digests = List.rev !digests;
    attempted;
    failed;
    reasons;
    events = List.rev !events;
    clean;
  }

let unit_digest c = List.assoc_opt "unit" c.digests

(* ------------------------------------------------------------------ *)
(* One workload's measurement *)

type measurement = {
  workload : string;
  traced : child list;
      (** with tracing: the traced run, then (checked only) a traced serve of
          the same inputs for check.* to compare against *)
  kernels : (string * float) list;
  mutable runs : child list;  (** untraced, newest first *)
}

let start ~spawn ~trace ~quick workload =
  let traced =
    if not trace then []
    else List.map (spawn ~traced:true) (workload :: (if workload = "checked" then [ "serve" ] else []))
  in
  let kernels = if trace then Kernels.run ~scale:(if quick then 50 else 1) else [] in
  { workload; traced; kernels; runs = [] }

let add_run ~spawn ~verbose m =
  let c = spawn ~traced:false m.workload in
  m.runs <- c :: m.runs;
  if verbose then
    Printf.eprintf "[e2e] %s run %d: total_s %.4f setup_s %.4f cpu_s %.4f\n%!" m.workload
      (List.length m.runs) (value c "total_s") (value c "setup_s") (value c "cpu_s")

let children m = m.traced @ List.rev m.runs

let clean_runs m = List.filter (fun c -> c.clean) (List.rev m.runs)

(* ------------------------------------------------------------------ *)
(* Metrics: each row is a metric and its values, one per run *)

let end_to_end_of c = function
  | "setup_s" -> value c "setup_s"
  | "sims_per_s" -> value c "sims" /. value c "total_s"
  | "requests_per_s" -> value c "requests" /. (value c "total_s" -. value c "setup_s")
  | name -> value c name

let end_to_end_row m (metric : Metric.t) =
  (metric, List.map (fun c -> end_to_end_of c metric.Metric.name) (clean_runs m))

let end_to_end_rows m = List.map (end_to_end_row m) Metric.end_to_end

(* The traced run's per-layer values, plus those that compare two runs;
   only for the layers this workload exercises. *)
let layer_rows m =
  match m.traced with
  | [] -> []
  | t :: rest ->
      let serve_t = match rest with s :: _ -> s | [] -> t in
      let run_s c = value c "total_s" -. value c "setup_s" in
      let untraced_total =
        match clean_runs m with
        | [] -> Float.nan
        | runs -> Metric.median (List.map (fun c -> value c "total_s") runs)
      in
      let derived =
        [
          ("trace.overhead_frac", (value t "total_s" /. untraced_total) -. 1.0);
          ("check.capture_s", value t "engine.run_self_s" -. value serve_t "engine.run_self_s");
          ("check.overhead_x", run_s t /. run_s serve_t);
          ("check.rss_delta_mb", value t "peak_rss_mb" -. value serve_t "peak_rss_mb");
        ]
      in
      List.filter_map
        (fun (metric : Metric.t) ->
          let name = metric.Metric.name in
          if not (Metric.exercised metric m.workload) then None
          else
            let v =
              match (List.assoc_opt name derived, List.assoc_opt name m.kernels) with
              | Some v, _ | None, Some v -> v
              | None, None -> value t name
            in
            Some (metric, [ v ]))
        Metric.per_layer

(* ------------------------------------------------------------------ *)
(* Correctness *)

(* Digest identities that must hold across runs, which all simulate the
   same inputs — traced or not, checked or not; each broken one is a
   message. Op failures (oracle, pins, crashes) are counted separately. *)
let consistency (children : child list) =
  let problems = ref [] in
  let add fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let digests w =
    List.sort_uniq compare (List.filter_map unit_digest (List.filter (fun (c : child) -> c.workload = w) children))
  in
  List.iter
    (fun w ->
      if List.length (digests w) > 1 then
        add "%s: runs disagree on the simulated-output digest (%s)" w (String.concat ", " (digests w)))
    Child.workloads;
  (match (digests "serve", digests "checked") with
  | [ s ], [ c ] when s <> c -> add "checked's simulated-stats digest %s differs from serve's %s" c s
  | _ -> ());
  List.iter
    (fun c ->
      match List.assoc_opt "jobs1" c.digests with
      | Some d when Some d <> unit_digest c -> add "sweep: jobs=1 digest differs from the jobs=nproc one"
      | _ -> ())
    children;
  List.rev !problems

(* Every metric of a measurement must have a finite value from a clean run:
   a crashed or silent child leaves none. *)
let unmeasured m =
  List.filter_map
    (fun ((metric : Metric.t), values) ->
      if values = [] then Some (Printf.sprintf "%s: %s has no value (no clean run)" m.workload metric.Metric.name)
      else if List.exists (fun v -> not (Float.is_finite v)) values then
        Some (Printf.sprintf "%s: %s is not finite" m.workload metric.Metric.name)
      else None)
    (end_to_end_rows m @ layer_rows m)

let problems ms = consistency (List.concat_map children ms) @ List.concat_map unmeasured ms

let totals children =
  List.fold_left (fun (a, f) c -> (a + c.attempted, f + c.failed)) (0, 0) children

let report_failures children problems =
  List.iter (fun c -> List.iter (fun r -> prerr_endline ("[e2e] FAILED op: " ^ r)) c.reasons) children;
  List.iter (fun p -> prerr_endline ("[e2e] FAILED check: " ^ p)) problems

(* ------------------------------------------------------------------ *)
(* Output *)

let write_trace path children =
  let events = List.concat_map (fun c -> c.events) children in
  let dir = Filename.dirname path in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  Out_channel.with_open_text path (fun oc ->
      output_string oc "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
      output_string oc (String.concat ",\n" events);
      output_string oc "\n]}\n");
  match Jsonr.member "traceEvents" (Jsonr.read_file path) with
  | Some (Report.Json.List l) when l <> [] -> None
  | _ -> Some (path ^ ": trace has no events")
  | exception Jsonr.Error e -> Some (path ^ ": trace does not parse: " ^ e)

(* The metrics BENCHMARK.json lists must be exactly the emitted ones, with
   the same units and directions. *)
let check_benchmark_json path =
  match Jsonr.read_file path with
  | exception (Sys_error e | Jsonr.Error e) -> [ path ^ ": " ^ e ]
  | doc ->
      let field k m = Option.value (Option.bind (Jsonr.member k m) Jsonr.to_string) ~default:"" in
      let listed key =
        Option.fold ~none:[] ~some:Jsonr.to_list (Jsonr.member key doc)
        |> List.map (fun m -> (field "name" m, field "unit" m, field "better" m))
        |> List.sort compare
      in
      let mine l =
        List.sort compare
          (List.map
             (fun (m : Metric.t) ->
               (m.Metric.name, m.Metric.unit_, match m.Metric.better with Lower -> "lower" | Higher -> "higher"))
             l)
      in
      let diff key l =
        if listed key = mine l then []
        else [ Printf.sprintf "%s: %s names, units or directions differ from the emitted ones" path key ]
      in
      diff "end_to_end" Metric.end_to_end
      @ diff "per_layer" Metric.per_layer
      @ List.filter_map
          (fun (m : Metric.t) ->
            if Metric.valid_name m.Metric.name then None else Some ("bad metric name " ^ m.Metric.name))
          Metric.metrics

let nproc () =
  match Unix.open_process_args_in "nproc" [| "nproc" |] with
  | exception Unix.Unix_error _ -> "?"
  | ic ->
      let n = try String.trim (input_line ic) with End_of_file -> "?" in
      ignore (Unix.close_process_in ic);
      n

(* ------------------------------------------------------------------ *)
(* --seconds: one workload, one JSON line *)

(* The contract's line lists every end-to-end metric (--trace 0) or every
   per-layer one (--trace 1). A layer this workload does not exercise reads
   0; a value that could not be measured is in [problems], which makes
   [correct] false. *)
let result_line ~trace m problems =
  let rows = if trace then layer_rows m else end_to_end_rows m in
  let attempted, failed = totals (children m) in
  let entry (metric : Metric.t) =
    let v =
      match List.find_opt (fun ((r : Metric.t), _) -> r.Metric.name = metric.Metric.name) rows with
      | Some (_, (_ :: _ as values)) -> Metric.summarize metric values
      | _ -> 0.0
    in
    Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (Spans.json_string metric.Metric.name)
      (if Float.is_finite v then Printf.sprintf "%.17g" v else "0")
      (Spans.json_string metric.Metric.unit_)
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (failed = 0 && problems = [])
    attempted failed
    (String.concat ", " (List.map entry (if trace then Metric.per_layer else Metric.end_to_end)))

let measure_for ~workload ~seed ~quick ~seconds ~trace ~trace_out =
  let start_ns = Spans.now () in
  let elapsed () = float_of_int (Spans.now () - start_ns) /. 1e9 in
  let spawn = spawn ~seed ~quick in
  let m = start ~spawn ~trace ~quick workload in
  (* Untraced runs until the next one would overrun [seconds]; at least
     [min_runs], and never past a hard ceiling. *)
  let min_runs = if trace then 1 else 3 in
  let rec more () =
    let t0 = elapsed () in
    add_run ~spawn ~verbose:(not quick) m;
    let next_end = elapsed () +. (elapsed () -. t0) in
    if not ((List.length m.runs >= min_runs && next_end > seconds) || next_end > 150.0) then more ()
  in
  more ();
  let problems = problems [ m ] @ if trace then Option.to_list (write_trace trace_out m.traced) else [] in
  report_failures (children m) problems;
  print_endline (result_line ~trace m problems)

(* Checks a --seconds result (the last line of [path], or of stdin for
   "-") against the contract: exactly the four keys, a clean run, and every
   end-to-end or every per-layer metric with its unit and a finite value. *)
let check_line path =
  let text =
    if path = "-" then In_channel.input_all stdin else In_channel.with_open_text path In_channel.input_all
  in
  let last =
    List.fold_left (fun acc l -> if String.trim l = "" then acc else l) "" (String.split_on_char '\n' text)
  in
  let names l = List.sort compare (List.map (fun (m : Metric.t) -> m.Metric.name) l) in
  let metric (name, v) =
    let finite = function
      | Some (Report.Json.Int _) -> true
      | Some (Report.Json.Float f) -> Float.is_finite f
      | _ -> false
    in
    match List.find_opt (fun (m : Metric.t) -> m.Metric.name = name) Metric.metrics with
    | Some m when finite (Jsonr.member "value" v) && Jsonr.member "unit" v = Some (Report.Json.Str m.Metric.unit_)
      ->
        None
    | _ -> Some ("bad entry for metric " ^ name)
  in
  let problems =
    match Jsonr.parse last with
    | exception Jsonr.Error e -> [ "result line does not parse: " ^ e ]
    | Report.Json.Obj fields as doc ->
        (if List.sort compare (List.map fst fields) = [ "attempted"; "correct"; "failed"; "metrics" ] then []
         else [ "result line keys are not correct, attempted, failed, metrics" ])
        @ (match Jsonr.member "correct" doc with Some (Report.Json.Bool true) -> [] | _ -> [ "correct is not true" ])
        @ (match (Jsonr.member "attempted" doc, Jsonr.member "failed" doc) with
          | Some (Report.Json.Int a), Some (Report.Json.Int 0) when a >= 1 -> []
          | _ -> [ "attempted is not >= 1 or failed is not 0" ])
        @ (match Jsonr.member "metrics" doc with
          | Some (Report.Json.Obj entries) ->
              let got = List.sort compare (List.map fst entries) in
              (if got = names Metric.end_to_end || got = names Metric.per_layer then []
               else [ "metrics are neither every end-to-end nor every per-layer metric" ])
              @ List.filter_map metric entries
          | _ -> [ "no metrics object" ])
    | _ -> [ "result line is not a JSON object" ]
  in
  List.iter (fun p -> prerr_endline ("[e2e] FAILED result line: " ^ p)) problems;
  if problems <> [] then exit 1

(* ------------------------------------------------------------------ *)
(* Default: R round-robin runs of each workload and a table *)

let report_mode ~workloads ~repeat ~seed ~quick ~trace_out ~json_out ~benchmark_json =
  let t_start = Spans.now () in
  let spawn = spawn ~seed ~quick in
  let ms =
    List.map
      (fun w ->
        if not quick then Printf.eprintf "[e2e] traced %s\n%!" w;
        start ~spawn ~trace:true ~quick w)
      workloads
  in
  for _ = 1 to repeat do
    List.iter (add_run ~spawn ~verbose:(not quick)) ms
  done;
  let wall_s = float_of_int (Spans.now () - t_start) /. 1e9 in
  let hr () = print_endline (String.make 72 '-') in
  Printf.printf "host nproc %s\n" (nproc ());
  Printf.printf "host recommended_domain_count %d\n" (Domain.recommended_domain_count ());
  Printf.printf "host ocaml %s\n" Sys.ocaml_version;
  Printf.printf "host seed %d\nhost repeats %d\nhost size %s\n" seed repeat (if quick then "quick" else "full");
  List.iter
    (fun m ->
      match clean_runs m with
      | [] -> ()
      | runs ->
          Printf.printf "host run_s %s %.3f (median of %d)\n" m.workload
            (Metric.median (List.map (fun c -> value c "total_s") runs))
            (List.length runs))
    ms;
  Printf.printf "host wall_s %.1f\n" wall_s;
  hr ();
  let json_rows = ref [] in
  let line w ((m : Metric.t), values) =
    if values <> [] then begin
      let q1, med, q3 = Metric.quartiles values and v = Metric.summarize m values in
      Printf.printf "%s %s %.6g %s median=%.6g q1=%.6g q3=%.6g n=%d\n" m.Metric.name w v m.Metric.unit_ med q1
        q3 (List.length values);
      json_rows :=
        Report.Json.Obj
          [
            ("name", Report.Json.Str m.Metric.name);
            ("workload", Report.Json.Str w);
            ("unit", Report.Json.Str m.Metric.unit_);
            ("value", Report.Json.Float v);
            ("median", Report.Json.Float med);
            ("q1", Report.Json.Float q1);
            ("q3", Report.Json.Float q3);
            ("n", Report.Json.Int (List.length values));
          ]
        :: !json_rows
    end
  in
  List.iter (fun metric -> List.iter (fun m -> line m.workload (end_to_end_row m metric)) ms) Metric.end_to_end;
  hr ();
  List.iter (fun m -> List.iter (line m.workload) (layer_rows m)) ms;
  List.iter
    (fun m ->
      match m.traced with
      | t :: _ when m.workload = "sweep" ->
          Printf.printf "# sim.fig1_ratio_mean %.3f against the paper's 0.602 (model unvalidated)\n"
            (value t "sim.fig1_ratio_mean")
      | _ -> ())
    ms;
  hr ();
  List.iter
    (fun m ->
      let a, f = totals (children m) in
      Printf.printf "fail_frac %s %.6g frac attempted=%d failed=%d\n" m.workload
        (float_of_int f /. float_of_int (max 1 a))
        a f)
    ms;
  let problems =
    problems ms
    @ Option.to_list (write_trace trace_out (List.concat_map (fun m -> m.traced) ms))
    @ match benchmark_json with Some path -> check_benchmark_json path | None -> []
  in
  let children = List.concat_map children ms in
  report_failures children problems;
  Printf.printf "trace written to %s\n" trace_out;
  Option.iter
    (fun path ->
      let host =
        Report.Json.Obj
          [
            ("nproc", Report.Json.Str (nproc ()));
            ("recommended_domain_count", Report.Json.Int (Domain.recommended_domain_count ()));
            ("ocaml", Report.Json.Str Sys.ocaml_version);
            ("seed", Report.Json.Int seed);
            ("repeats", Report.Json.Int repeat);
          ]
      in
      Out_channel.with_open_text path (fun oc ->
          output_string oc
            (Report.Json.to_string_pretty
               (Report.Json.Obj [ ("host", host); ("metrics", Report.Json.List (List.rev !json_rows)) ]));
          output_char oc '\n'))
    json_out;
  let _, failed = totals children in
  if failed > 0 || problems <> [] then exit 1

(* ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: bench.exe [--workload sweep|serve|checked] [--repeat R] [--seed S] [--trace-out FILE]\n\
    \                 [--json FILE] [--quick] [--benchmark-json FILE]\n\
    \       bench.exe --workload W --seed S --seconds N --trace 0|1 [--trace-out FILE] [--quick]\n\
    \       bench.exe --check-line FILE|-";
  exit 2

let () =
  let workload = ref None and repeat = ref None and seed = ref 42 and quick = ref false in
  let trace_out = ref None and json_out = ref None and benchmark_json = ref None in
  let seconds = ref None and trace = ref false and check = ref None in
  let run = ref None and spawn_ns = ref 0 and traced = ref false in
  let int_arg flag v =
    match int_of_string_opt v with
    | Some n -> n
    | None ->
        Printf.eprintf "%s expects an integer\n" flag;
        usage ()
  in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest ->
        if not (List.mem w Child.workloads) then usage ();
        workload := Some w;
        parse rest
    | "--repeat" :: r :: rest ->
        let r = int_arg "--repeat" r in
        if r < 1 then usage ();
        repeat := Some r;
        parse rest
    | "--seed" :: s :: rest ->
        seed := int_arg "--seed" s;
        parse rest
    | "--seconds" :: s :: rest ->
        (match float_of_string_opt s with Some s when s > 0.0 -> seconds := Some s | _ -> usage ());
        parse rest
    | "--trace" :: t :: rest ->
        (match t with "0" -> trace := false | "1" -> trace := true | _ -> usage ());
        parse rest
    | "--trace-out" :: f :: rest ->
        trace_out := Some f;
        parse rest
    | "--json" :: f :: rest ->
        json_out := Some f;
        parse rest
    | "--benchmark-json" :: f :: rest ->
        benchmark_json := Some f;
        parse rest
    | "--check-line" :: f :: rest ->
        check := Some f;
        parse rest
    | "--quick" :: rest ->
        quick := true;
        parse rest
    | "--run" :: w :: rest ->
        run := Some w;
        parse rest
    | "--spawn-ns" :: n :: rest ->
        spawn_ns := int_arg "--spawn-ns" n;
        parse rest
    | "--traced" :: rest ->
        traced := true;
        parse rest
    | a :: _ ->
        Printf.eprintf "unknown argument %s\n" a;
        usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match (!check, !run, !seconds) with
  | Some path, _, _ -> check_line path
  | None, Some w, _ ->
      Child.main ~workload:w ~seed:!seed
        ~size:(if !quick then Child.Quick else Child.Full)
        ~spawn_ns:!spawn_ns ~traced:!traced
  | None, None, Some seconds -> (
      match !workload with
      | Some w ->
          measure_for ~workload:w ~seed:!seed ~quick:!quick ~seconds ~trace:!trace
            ~trace_out:(Option.value !trace_out ~default:(Printf.sprintf "_build/e2e-trace-%s.json" w))
      | None -> usage ())
  | None, None, None ->
      report_mode
        ~workloads:(match !workload with Some w -> [ w ] | None -> Child.workloads)
        ~repeat:(Option.value !repeat ~default:(if !quick then 1 else 5))
        ~seed:!seed ~quick:!quick
        ~trace_out:(Option.value !trace_out ~default:"_build/e2e-trace.json")
        ~json_out:!json_out ~benchmark_json:!benchmark_json
