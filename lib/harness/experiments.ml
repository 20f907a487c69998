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

(* The whole suite is one [Run.best_of_retries] batch over workload x preset
   pairs, so its task order is workload -> preset -> retry -> seed. *)
let run_suite ?jobs ?check ?cache ?(workloads = Workloads.Registry.all) ?progress opts =
  let measured =
    Run.best_of_retries ?jobs ?check ?cache ?progress ~retry_choices:opts.retry_choices
      ~seeds:opts.seeds ~trim:opts.trim
      (List.concat_map (fun w -> List.map (fun (_, cfg) -> (cfg, w)) (presets opts)) workloads)
  in
  let row (w : Machine.Workload.t) =
    ( w.name,
      List.filter_map
        (fun (m : Run.t) -> if m.workload = w.name then Some (m.preset, m) else None)
        measured )
  in
  { options = opts; rows = List.map row workloads }

let get suite workload letter =
  match List.assoc_opt workload suite.rows with
  | None -> invalid_arg ("suite: unknown workload " ^ workload)
  | Some per -> (
      match List.assoc_opt letter per with
      | Some r -> r
      | None -> invalid_arg ("suite: unknown preset " ^ letter))

let workload_names suite = List.map fst suite.rows

(* Append a geomean row computed from per-workload values. *)
let geo values = Summary.geomean values

(* Accumulate per-key value lists while walking the suite. *)
let add_to_bucket tbl key v =
  Hashtbl.replace tbl key (v :: Option.value (Hashtbl.find_opt tbl key) ~default:[])

let bucket tbl key = Option.value (Hashtbl.find_opt tbl key) ~default:[]

(* ------------------------------------------------------------------ *)

let table1 () =
  let t =
    Table.create ~title:"Table 1: Characterization of ARs (static analysis)"
      ~columns:[ "Benchmark"; "# of ARs"; "Immutable"; "Likely immutable"; "Mutable" ]
  in
  List.iter
    (fun (w : Machine.Workload.t) ->
      let classified = Clear.Analysis.classify_workload w.ars in
      let im, li, mu = Clear.Analysis.count classified in
      Table.add_row t
        [ w.name; string_of_int (List.length w.ars); string_of_int im; string_of_int li; string_of_int mu ])
    Workloads.Registry.all;
  t

let table2 opts =
  let t = Table.create ~title:"Table 2: Baseline system configuration" ~columns:[ "Setting" ] in
  let cfg = config_of_letter opts "B" in
  String.split_on_char '\n' (Format.asprintf "%a" Machine.Config.pp cfg)
  |> List.iter (fun line -> Table.add_row t [ line ]);
  t

let fig1 suite =
  let t =
    Table.create ~title:"Figure 1: ARs that keep their footprint on the first retry (baseline)"
      ~columns:[ "Benchmark"; "stable-footprint ratio" ]
  in
  let values =
    List.map
      (fun name ->
        let r = get suite name "B" in
        Table.add_row t [ name; Table.f2 r.Run.fig1_ratio ];
        r.Run.fig1_ratio)
      (workload_names suite)
  in
  Table.add_separator t;
  Table.add_row t [ "average"; Table.f2 (Summary.mean values) ];
  t

let normalised_table suite ~title ~value =
  let t = Table.create ~title ~columns:("Benchmark" :: letters) in
  let per_letter = Hashtbl.create 4 in
  List.iter
    (fun name ->
      let base = value (get suite name "B") in
      let cells =
        List.map
          (fun letter ->
            let v = value (get suite name letter) in
            let norm = if base > 0.0 then v /. base else 0.0 in
            add_to_bucket per_letter letter norm;
            Table.f3 norm)
          letters
      in
      Table.add_row t (name :: cells))
    (workload_names suite);
  Table.add_separator t;
  Table.add_row t
    ("geomean" :: List.map (fun letter -> Table.f3 (geo (bucket per_letter letter))) letters);
  t

let fig8 suite =
  normalised_table suite ~title:"Figure 8: Normalized execution time (lower is better)"
    ~value:(fun r -> r.Run.cycles)

let fig8_discovery suite =
  let d =
    Table.create ~title:"Figure 8 (companion): time running aborted in discovery"
      ~columns:("Benchmark" :: letters)
  in
  List.iter
    (fun name ->
      Table.add_row d
        (name :: List.map (fun letter -> Table.pct (get suite name letter).Run.discovery_fraction) letters))
    (workload_names suite);
  d

let fig9 suite =
  let t =
    Table.create ~title:"Figure 9: Aborts per committed transaction" ~columns:("Benchmark" :: letters)
  in
  let per_letter = Hashtbl.create 4 in
  List.iter
    (fun name ->
      Table.add_row t
        (name
        :: List.map
             (fun letter ->
               let v = (get suite name letter).Run.aborts_per_commit in
               add_to_bucket per_letter letter v;
               Table.f2 v)
             letters))
    (workload_names suite);
  Table.add_separator t;
  Table.add_row t
    ("average"
    :: List.map (fun letter -> Table.f2 (Summary.mean (bucket per_letter letter))) letters);
  t

let fig10 suite =
  normalised_table suite ~title:"Figure 10: Normalized energy consumption (lower is better)"
    ~value:(fun r -> r.Run.energy)

let fig11 suite =
  let t =
    Table.create ~title:"Figure 11: Abort breakdown per type (aborts per commit)"
      ~columns:[ "Benchmark"; "Cfg"; "MemConflict"; "ExplicitFB"; "OtherFB"; "Others" ]
  in
  List.iter
    (fun name ->
      List.iter
        (fun letter ->
          let r = get suite name letter in
          let cat c = List.assoc c r.Run.abort_categories in
          Table.add_row t
            [
              name;
              letter;
              Table.f2 (cat Machine.Abort.Cat_memory_conflict);
              Table.f2 (cat Machine.Abort.Cat_explicit_fallback);
              Table.f2 (cat Machine.Abort.Cat_other_fallback);
              Table.f2 (cat Machine.Abort.Cat_others);
            ])
        letters;
      Table.add_separator t)
    (workload_names suite);
  t

let fig12 suite =
  let t =
    Table.create ~title:"Figure 12: Commit breakdown per mode"
      ~columns:[ "Benchmark"; "Cfg"; "Speculative"; "S-CL"; "NS-CL"; "Fallback" ]
  in
  let totals = Hashtbl.create 16 in
  List.iter
    (fun name ->
      List.iter
        (fun letter ->
          let r = get suite name letter in
          let m mode = List.assoc mode r.Run.commit_mode_fractions in
          List.iter
            (fun mode -> add_to_bucket totals (letter, mode) (m mode))
            Machine.Stats.all_commit_modes;
          Table.add_row t
            [
              name;
              letter;
              Table.pct (m Machine.Stats.Speculative);
              Table.pct (m Machine.Stats.Scl);
              Table.pct (m Machine.Stats.Nscl);
              Table.pct (m Machine.Stats.Fallback);
            ])
        letters;
      Table.add_separator t)
    (workload_names suite);
  List.iter
    (fun letter ->
      let avg mode = Summary.mean (bucket totals (letter, mode)) in
      Table.add_row t
        [
          "average";
          letter;
          Table.pct (avg Machine.Stats.Speculative);
          Table.pct (avg Machine.Stats.Scl);
          Table.pct (avg Machine.Stats.Nscl);
          Table.pct (avg Machine.Stats.Fallback);
        ])
    letters;
  t

let fig13 suite =
  let t =
    Table.create ~title:"Figure 13: Commit breakdown per retries (excluding 0-retry commits)"
      ~columns:[ "Benchmark"; "Cfg"; "1-retry"; "n-retry"; "Fallback" ]
  in
  let totals = Hashtbl.create 16 in
  List.iter
    (fun name ->
      List.iter
        (fun letter ->
          let r = get suite name letter in
          let one, many, fb = r.Run.retry_breakdown in
          add_to_bucket totals letter (one, many, fb);
          Table.add_row t [ name; letter; Table.pct one; Table.pct many; Table.pct fb ])
        letters;
      Table.add_separator t)
    (workload_names suite);
  List.iter
    (fun letter ->
      let rows = bucket totals letter in
      let avg f = Summary.mean (List.map f rows) in
      Table.add_row t
        [
          "average";
          letter;
          Table.pct (avg (fun (a, _, _) -> a));
          Table.pct (avg (fun (_, b, _) -> b));
          Table.pct (avg (fun (_, _, c) -> c));
        ])
    letters;
  t

let headline suite =
  let names = workload_names suite in
  let mean_over letter f = Summary.mean (List.map (fun n -> f (get suite n letter)) names) in
  let norm_geo letter f =
    geo
      (List.map
         (fun n ->
           let b = f (get suite n "B") in
           let v = f (get suite n letter) in
           if b > 0.0 then v /. b else 1.0)
         names)
  in
  let t =
    Table.create ~title:"Headline numbers: paper vs. measured"
      ~columns:[ "Metric"; "Paper"; "Measured" ]
  in
  Table.add_row t
    [
      "single-retry commits, baseline";
      "35.4%";
      Table.pct (mean_over "B" (fun r -> let a, _, _ = r.Run.retry_breakdown in a));
    ];
  Table.add_row t
    [
      "single-retry commits, CLEAR+PowerTM";
      "64.4%";
      Table.pct (mean_over "W" (fun r -> let a, _, _ = r.Run.retry_breakdown in a));
    ];
  Table.add_row t
    [
      "fallback share, baseline";
      "37.2%";
      Table.pct (mean_over "B" (fun r -> let _, _, c = r.Run.retry_breakdown in c));
    ];
  Table.add_row t
    [
      "fallback share, CLEAR+PowerTM";
      "15.4%";
      Table.pct (mean_over "W" (fun r -> let _, _, c = r.Run.retry_breakdown in c));
    ];
  Table.add_row t
    [ "aborts/commit, baseline"; "7.9"; Table.f2 (mean_over "B" (fun r -> r.Run.aborts_per_commit)) ];
  Table.add_row t
    [
      "aborts/commit, CLEAR(rw)"; "1.6"; Table.f2 (mean_over "C" (fun r -> r.Run.aborts_per_commit));
    ];
  Table.add_row t
    [
      "exec time vs baseline, CLEAR+PowerTM";
      "-35.0%";
      Printf.sprintf "%+.1f%%" (100.0 *. (norm_geo "W" (fun r -> r.Run.cycles) -. 1.0));
    ];
  Table.add_row t
    [
      "exec time vs baseline, PowerTM";
      "-12.7%";
      Printf.sprintf "%+.1f%%" (100.0 *. (norm_geo "P" (fun r -> r.Run.cycles) -. 1.0));
    ];
  Table.add_row t
    [
      "energy vs baseline, CLEAR(rw)";
      "-26.4%";
      Printf.sprintf "%+.1f%%" (100.0 *. (norm_geo "C" (fun r -> r.Run.energy) -. 1.0));
    ];
  Table.add_row t
    [
      "energy vs baseline, CLEAR+PowerTM";
      "-30.6%";
      Printf.sprintf "%+.1f%%" (100.0 *. (norm_geo "W" (fun r -> r.Run.energy) -. 1.0));
    ];
  t

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
  let cells =
    List.concat_map (fun w -> List.map (fun (label, cfg) -> (label, (cfg, w))) variants) workloads
  in
  let measured =
    Run.best_of_retries ?jobs ?check ?cache ?progress ~seeds:opts.seeds ~trim:opts.trim
      (List.map snd cells)
  in
  let t =
    Table.create ~title:"Ablation: CLEAR design choices (cycles, conversions)"
      ~columns:[ "Benchmark"; "Variant"; "Cycles"; "Aborts/commit"; "NS-CL+S-CL share"; "Fallback share" ]
  in
  List.iter
    (fun (w : Machine.Workload.t) ->
      List.iter2
        (fun (label, _) (m : Run.t) ->
          let mode m' = List.assoc m' m.commit_mode_fractions in
          if m.workload = w.name then
            Table.add_row t
              [
                w.name;
                label;
                Printf.sprintf "%.0f" m.cycles;
                Table.f2 m.aborts_per_commit;
                Table.pct (mode Machine.Stats.Scl +. mode Machine.Stats.Nscl);
                Table.pct (mode Machine.Stats.Fallback);
              ])
        cells measured;
      Table.add_separator t)
    workloads;
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
  let t =
    Table.create
      ~title:"Extension: speculation front-ends (cycles; SLE fallback takes the region's own lock)"
      ~columns:[ "Benchmark"; "B/HTM"; "B/SLE"; "W/HTM"; "W/SLE" ]
  in
  List.iter
    (fun name ->
      Table.add_row t
        (name
        :: List.filter_map
             (fun (m : Run.t) ->
               if m.workload = name then Some (Printf.sprintf "%.0f" m.cycles) else None)
             measured))
    names;
  t

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
