module Table = Report.Table
module Summary = Simrt.Summary

type options = {
  cores : int;
  ops_per_thread : int;
  seeds : int list;
  trim : int;
  retry_choices : int list;
  sched : Sched.Profile.t;
}

let default_options =
  {
    cores = 32;
    ops_per_thread = 300;
    seeds = [ 11; 23; 37; 41; 53; 67; 79; 83; 97; 101 ];
    trim = 3;
    retry_choices = [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ];
    sched = Sched.Profile.symmetric;
  }

let quick_options =
  {
    cores = 32;
    ops_per_thread = 150;
    seeds = [ 11; 23; 37 ];
    trim = 0;
    retry_choices = [ 1; 2; 4; 8 ];
    sched = Sched.Profile.symmetric;
  }

let smoke_options =
  {
    cores = 4;
    ops_per_thread = 40;
    seeds = [ 3; 5 ];
    trim = 0;
    retry_choices = [ 2; 5 ];
    sched = Sched.Profile.symmetric;
  }

type suite = { options : options; rows : (string * (string * Run.t) list) list }

let apply_options (opts : options) (cfg : Machine.Config.t) =
  Machine.Config.with_sched
    { cfg with Machine.Config.cores = opts.cores; ops_per_thread = opts.ops_per_thread }
    opts.sched

let letters = [ "B"; "P"; "C"; "W" ]

let preset = function
  | "B" -> Machine.Config.baseline
  | "P" -> Machine.Config.power_tm
  | "C" -> Machine.Config.clear_rw
  | "W" -> Machine.Config.clear_power
  | letter -> invalid_arg ("Experiments.preset: unknown preset " ^ letter)

let presets opts = List.map (fun letter -> (letter, apply_options opts (preset letter))) letters

let config_of_letter opts letter =
  match List.assoc_opt letter (presets opts) with
  | Some cfg -> cfg
  | None -> invalid_arg ("config_of_letter: unknown preset " ^ letter)

(* [xs] cut into consecutive lists of [n]: the shape of a batch built with
   [List.concat_map] over [n] cells per item. *)
let rec chunks n = function
  | [] -> []
  | xs -> List.filteri (fun i _ -> i < n) xs :: chunks n (List.filteri (fun i _ -> i >= n) xs)

(* The whole suite is one [Run.best_of_retries] batch over workload x preset
   pairs, so its task order is workload -> preset -> retry -> seed. *)
let run_suite ?jobs ?check ?cache ?(workloads = Workloads.Registry.all) ?progress opts =
  let measured =
    Run.best_of_retries ?jobs ?check ?cache ?progress ~retry_choices:opts.retry_choices
      ~seeds:opts.seeds ~trim:opts.trim
      (List.concat_map (fun w -> List.map (fun (_, cfg) -> (cfg, w)) (presets opts)) workloads)
  in
  let row (w : Machine.Workload.t) runs = (w.name, List.map (fun (m : Run.t) -> (m.preset, m)) runs) in
  { options = opts; rows = List.map2 row workloads (chunks (List.length letters) measured) }

(* One workload's run under [letter]. *)
let pick runs letter =
  match List.assoc_opt letter runs with
  | Some r -> r
  | None -> invalid_arg ("suite: unknown preset " ^ letter)

(* [fold] over values given in workload order, taking them last workload
   first. Float sums depend on order: every closing row except Figure 1's
   folds this way, and the recorded figures were printed from that order. *)
let last_first fold values = fold (List.rev values)

(* The two shapes of a suite-derived table. A column is a header and the
   value a cell reads; every cell is rendered by [fmt]. *)

(* One row per workload, whose columns read its runs keyed by preset letter;
   [close] adds a closing row: its label and the fold over each column's
   values in workload order. *)
let by_workload ~title ~columns ~fmt ?close suite =
  let t = Table.create ~title ~columns:("Benchmark" :: List.map fst columns) in
  let row label cell = Table.add_row t (label :: List.map (fun (_, value) -> fmt (cell value)) columns) in
  List.iter (fun (name, runs) -> row name (fun value -> value runs)) suite.rows;
  Option.iter
    (fun (label, fold) ->
      Table.add_separator t;
      row label (fun value -> fold (List.map (fun (_, runs) -> value runs) suite.rows)))
    close;
  t

(* One row per (workload, preset), whose columns read that run, with a
   separator after each workload; [~average:true] adds an average row per
   preset. *)
let by_run ~title ~columns ~fmt ?(average = false) suite =
  let t = Table.create ~title ~columns:("Benchmark" :: "Cfg" :: List.map fst columns) in
  let row label letter cell =
    Table.add_row t (label :: letter :: List.map (fun (_, value) -> fmt (cell value)) columns)
  in
  List.iter
    (fun (name, runs) ->
      List.iter (fun letter -> row name letter (fun value -> value (pick runs letter))) letters;
      Table.add_separator t)
    suite.rows;
  if average then
    List.iter
      (fun letter ->
        row "average" letter (fun value ->
            last_first Summary.mean (List.map (fun (_, runs) -> value (pick runs letter)) suite.rows)))
      letters;
  t

(* One column per preset, reading [value] of that preset's run. *)
let per_preset value = List.map (fun letter -> (letter, fun runs -> value (pick runs letter))) letters

(* [per_preset], normalised to the baseline's value. *)
let normalised value =
  List.map
    (fun letter ->
      ( letter,
        fun runs ->
          let base = value (pick runs "B") in
          if base > 0.0 then value (pick runs letter) /. base else 0.0 ))
    letters

let first_retry (r : Run.t) = let one, _, _ = r.retry_breakdown in one
let fallback_share (r : Run.t) = let _, _, fb = r.retry_breakdown in fb

let cycles (r : Run.t) = Printf.sprintf "%.0f" r.cycles

let table ~title ~columns rows =
  let t = Table.create ~title ~columns in
  List.iter (Table.add_row t) rows;
  t

(* ------------------------------------------------------------------ *)

let table1 () =
  table ~title:"Table 1: Characterization of ARs (static analysis)"
    ~columns:[ "Benchmark"; "# of ARs"; "Immutable"; "Likely immutable"; "Mutable" ]
    (List.map
       (fun (w : Machine.Workload.t) ->
         let im, li, mu = Clear.Analysis.count (Clear.Analysis.classify_workload w.ars) in
         w.name :: List.map string_of_int [ List.length w.ars; im; li; mu ])
       Workloads.Registry.all)

let table2 opts =
  table ~title:"Table 2: Baseline system configuration" ~columns:[ "Setting" ]
    (String.split_on_char '\n' (Format.asprintf "%a" Machine.Config.pp (config_of_letter opts "B"))
    |> List.map (fun line -> [ line ]))

let fig1 suite =
  by_workload ~title:"Figure 1: ARs that keep their footprint on the first retry (baseline)"
    ~columns:[ ("stable-footprint ratio", fun runs -> (pick runs "B").Run.fig1_ratio) ]
    ~fmt:Table.f2 ~close:("average", Summary.mean) suite

let fig8 suite =
  by_workload ~title:"Figure 8: Normalized execution time (lower is better)"
    ~columns:(normalised (fun r -> r.Run.cycles))
    ~fmt:Table.f3 ~close:("geomean", last_first Summary.geomean) suite

let fig8_discovery suite =
  by_workload ~title:"Figure 8 (companion): time running aborted in discovery"
    ~columns:(per_preset (fun r -> r.Run.discovery_fraction))
    ~fmt:Table.pct suite

let fig9 suite =
  by_workload ~title:"Figure 9: Aborts per committed transaction"
    ~columns:(per_preset (fun r -> r.Run.aborts_per_commit))
    ~fmt:Table.f2 ~close:("average", last_first Summary.mean) suite

let fig10 suite =
  by_workload ~title:"Figure 10: Normalized energy consumption (lower is better)"
    ~columns:(normalised (fun r -> r.Run.energy))
    ~fmt:Table.f3 ~close:("geomean", last_first Summary.geomean) suite

let fig11 suite =
  by_run ~title:"Figure 11: Abort breakdown per type (aborts per commit)"
    ~columns:
      (List.map
         (fun (header, cat) -> (header, fun r -> List.assoc cat r.Run.abort_categories))
         Check.Abort.
           [
             ("MemConflict", Cat_memory_conflict);
             ("ExplicitFB", Cat_explicit_fallback);
             ("OtherFB", Cat_other_fallback);
             ("Others", Cat_others);
           ])
    ~fmt:Table.f2 suite

let fig12 suite =
  by_run ~title:"Figure 12: Commit breakdown per mode"
    ~columns:
      (List.map
         (fun (header, mode) -> (header, fun r -> List.assoc mode r.Run.commit_mode_fractions))
         Machine.Stats.
           [ ("Speculative", Speculative); ("S-CL", Scl); ("NS-CL", Nscl); ("Fallback", Fallback) ])
    ~fmt:Table.pct ~average:true suite

let fig13 suite =
  by_run ~title:"Figure 13: Commit breakdown per retries (excluding 0-retry commits)"
    ~columns:
      [
        ("1-retry", first_retry);
        ("n-retry", fun r -> let _, many, _ = r.Run.retry_breakdown in many);
        ("Fallback", fallback_share);
      ]
    ~fmt:Table.pct ~average:true suite

let headline suite =
  let over letter f = List.map (fun (_, runs) -> f (pick runs letter)) suite.rows in
  let mean letter f = Summary.mean (over letter f) in
  let change letter f =
    let ratio = List.map2 (fun b v -> if b > 0.0 then v /. b else 1.0) (over "B" f) (over letter f) in
    Printf.sprintf "%+.1f%%" (100.0 *. (Summary.geomean ratio -. 1.0))
  in
  table ~title:"Headline numbers: paper vs. measured" ~columns:[ "Metric"; "Paper"; "Measured" ]
    [
      [ "single-retry commits, baseline"; "35.4%"; Table.pct (mean "B" first_retry) ];
      [ "single-retry commits, CLEAR+PowerTM"; "64.4%"; Table.pct (mean "W" first_retry) ];
      [ "fallback share, baseline"; "37.2%"; Table.pct (mean "B" fallback_share) ];
      [ "fallback share, CLEAR+PowerTM"; "15.4%"; Table.pct (mean "W" fallback_share) ];
      [ "aborts/commit, baseline"; "7.9"; Table.f2 (mean "B" (fun r -> r.Run.aborts_per_commit)) ];
      [ "aborts/commit, CLEAR(rw)"; "1.6"; Table.f2 (mean "C" (fun r -> r.Run.aborts_per_commit)) ];
      [ "exec time vs baseline, CLEAR+PowerTM"; "-35.0%"; change "W" (fun r -> r.Run.cycles) ];
      [ "exec time vs baseline, PowerTM"; "-12.7%"; change "P" (fun r -> r.Run.cycles) ];
      [ "energy vs baseline, CLEAR(rw)"; "-26.4%"; change "C" (fun r -> r.Run.energy) ];
      [ "energy vs baseline, CLEAR+PowerTM"; "-30.6%"; change "W" (fun r -> r.Run.energy) ];
    ]

(* ------------------------------------------------------------------ *)
(* Ablations (DESIGN.md section 5) *)

let ablation ?jobs ?check ?cache ?progress opts =
  let base = config_of_letter opts "C" in
  let variants =
    [
      ("CLEAR", base);
      ("no failed-mode discovery", { base with Machine.Config.failed_mode_discovery = false });
      ("no CRT read locking", { base with Machine.Config.use_crt = false });
      ("no CRT decay", { base with Machine.Config.crt_decay = false });
      ("baseline (no CLEAR)", { base with Machine.Config.clear_enabled = false });
    ]
  in
  let workloads =
    [ Workloads.Mwobject.workload; Workloads.Bitcoin.workload; Workloads.Bst.workload ]
  in
  let measured =
    Run.best_of_retries ?jobs ?check ?cache ?progress ~seeds:opts.seeds ~trim:opts.trim
      (List.concat_map (fun w -> List.map (fun (_, cfg) -> (cfg, w)) variants) workloads)
  in
  let t =
    Table.create ~title:"Ablation: CLEAR design choices (cycles, conversions)"
      ~columns:[ "Benchmark"; "Variant"; "Cycles"; "Aborts/commit"; "NS-CL+S-CL share"; "Fallback share" ]
  in
  List.iter2
    (fun (w : Machine.Workload.t) runs ->
      List.iter2
        (fun (label, _) (m : Run.t) ->
          let mode m' = List.assoc m' m.commit_mode_fractions in
          Table.add_row t
            [
              w.name;
              label;
              cycles m;
              Table.f2 m.aborts_per_commit;
              Table.pct (mode Machine.Stats.Scl +. mode Machine.Stats.Nscl);
              Table.pct (mode Machine.Stats.Fallback);
            ])
        variants runs;
      Table.add_separator t)
    workloads
    (chunks (List.length variants) measured);
  t

(* Extension: HTM vs SLE front-ends (paper S4.1/S4.3 describe CLEAR for
   both; the paper evaluates HTM only). *)
let sle ?jobs ?check ?cache ?progress opts =
  let names = [ "hashmap"; "kmeans-h"; "vacation-h"; "ssca2"; "bitcoin"; "stack" ] in
  let cell letter frontend = Machine.Config.with_frontend (config_of_letter opts letter) frontend in
  let measured =
    Run.best_of_retries ?jobs ?check ?cache ?progress ~seeds:opts.seeds ~trim:opts.trim
      (List.concat_map
         (fun name ->
           let w = Workloads.Registry.find name in
           [
             (cell "B" Machine.Config.Htm, w);
             (cell "B" Machine.Config.Sle, w);
             (cell "W" Machine.Config.Htm, w);
             (cell "W" Machine.Config.Sle, w);
           ])
         names)
  in
  table ~title:"Extension: speculation front-ends (cycles; SLE fallback takes the region's own lock)"
    ~columns:[ "Benchmark"; "B/HTM"; "B/SLE"; "W/HTM"; "W/SLE" ]
    (List.map2 (fun name runs -> name :: List.map cycles runs) names (chunks 4 measured))

let storage () =
  let t =
    Table.create ~title:"Storage overhead per core (paper S5: 988.5 bytes)"
      ~columns:[ "Structure"; "Paper"; "Computed" ]
  in
  let b = Clear.Storage.paper in
  let bytes v = Printf.sprintf "%.1f B" v in
  Table.add_row t [ "indirection bits (180 pregs)"; "22.5 B"; bytes b.Clear.Storage.indirection_bytes ];
  Table.add_row t [ "ERT (16 entries)"; "146 B"; bytes b.Clear.Storage.ert_bytes ];
  Table.add_row t [ "ALT (32 entries)"; "276 B"; bytes b.Clear.Storage.alt_bytes ];
  Table.add_row t [ "CRT (64 entries)"; "544 B"; bytes b.Clear.Storage.crt_bytes ];
  Table.add_separator t;
  Table.add_row t [ "total"; "988.5 B"; bytes b.Clear.Storage.total_bytes ];
  t
