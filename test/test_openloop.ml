(* Tests for the open-system traffic harness: exact percentile reporting,
   pooled witness capture, request-lifecycle conservation, saturation
   drops, jobs determinism and the suite-cache bypass. *)

module Config = Machine.Config
module Percentile = Report.Percentile
module Driver = Openloop.Driver
module Sweep = Openloop.Sweep

(* ------------------------------------------------------------------ *)
(* Percentile reporter *)

let test_percentile_edges () =
  Alcotest.(check bool) "empty is None" true (Percentile.of_samples [||] = None);
  (match Percentile.of_samples [| 7 |] with
  | None -> Alcotest.fail "singleton must report"
  | Some p ->
      Alcotest.(check int) "count" 1 p.Percentile.count;
      Alcotest.(check (float 0.0)) "mean" 7.0 p.Percentile.mean;
      Alcotest.(check int) "max" 7 p.Percentile.max;
      Alcotest.(check int) "p50" 7 p.Percentile.p50;
      Alcotest.(check int) "p99" 7 p.Percentile.p99;
      Alcotest.(check int) "p999" 7 p.Percentile.p999);
  Alcotest.(check int) "rank floor" 1 (Percentile.rank ~count:10 0.0);
  Alcotest.(check int) "rank ceiling" 10 (Percentile.rank ~count:10 1.0);
  Alcotest.check_raises "empty rank" (Invalid_argument "Percentile.rank: empty sample")
    (fun () -> ignore (Percentile.rank ~count:0 0.5));
  Alcotest.check_raises "quantile range" (Invalid_argument "Percentile.rank: quantile outside [0,1]")
    (fun () -> ignore (Percentile.rank ~count:4 1.5))

let test_percentile_known () =
  (* The documented examples: nearest-rank, no interpolation. *)
  (match Percentile.of_samples [| 4; 2; 1; 3 |] with
  | None -> Alcotest.fail "non-empty"
  | Some p -> Alcotest.(check int) "p50 of 1..4" 2 p.Percentile.p50);
  let thousand = Array.init 1000 (fun i -> i + 1) in
  match Percentile.of_samples thousand with
  | None -> Alcotest.fail "non-empty"
  | Some p ->
      Alcotest.(check int) "p99 of 1..1000" 990 p.Percentile.p99;
      Alcotest.(check int) "p999 of 1..1000" 999 p.Percentile.p999;
      Alcotest.(check int) "max" 1000 p.Percentile.max

(* The reporter must agree with a straight sorted-array oracle (the
   definition, written independently of the implementation). *)
let prop_percentile_oracle =
  QCheck.Test.make ~name:"percentiles match sorted-array oracle" ~count:300
    QCheck.(list_of_size (Gen.int_range 1 200) (int_range (-1000) 1000))
    (fun samples ->
      let arr = Array.of_list samples in
      let sorted = List.sort compare samples in
      let n = List.length samples in
      let nth q =
        let r = Stdlib.max 1 (int_of_float (ceil (q *. float_of_int n))) in
        List.nth sorted (r - 1)
      in
      match Percentile.of_samples arr with
      | None -> false
      | Some p ->
          p.Percentile.count = n
          && p.Percentile.max = List.nth sorted (n - 1)
          && p.Percentile.p50 = nth 0.50
          && p.Percentile.p99 = nth 0.99
          && p.Percentile.p999 = nth 0.999
          && abs_float
               (p.Percentile.mean -. List.fold_left (fun a v -> a +. float_of_int v) 0.0 sorted /. float_of_int n)
             < 1e-9)

(* The sort-based reporter selection replaced, kept as the reference:
   copy, sort, index each nearest rank, sum as floats. *)
let sorted_reference samples =
  let sorted = Array.copy samples in
  Array.stable_sort Int.compare sorted;
  let count = Array.length sorted in
  let sum = Array.fold_left (fun acc v -> acc +. float_of_int v) 0.0 sorted in
  {
    Percentile.count;
    mean = sum /. float_of_int count;
    max = sorted.(count - 1);
    p50 = Percentile.percentile sorted 0.50;
    p99 = Percentile.percentile sorted 0.99;
    p999 = Percentile.percentile sorted 0.999;
  }

(* Equal to the reference record for record, mean included, on samples of
   every size from 1 with heavy duplication (a narrow value range) or
   little (a wide one), in random, ascending or descending order (latency
   samples under overload arrive nearly sorted), and the input left
   untouched. *)
let prop_percentile_selection_matches_sort =
  QCheck.Test.make ~name:"selection equals the sort-based reference" ~count:500
    QCheck.(
      make
        ~print:Print.(array int)
        Gen.(
          triple (int_range 1 2_000) (oneofl [ 3; 100; 1_000_000 ]) (oneofl [ 0; 1; -1 ])
          >>= fun (n, span, order) ->
          map
            (fun a ->
              if order <> 0 then Array.stable_sort (fun x y -> order * Int.compare x y) a;
              a)
            (array_size (return n) (int_range (-span) span))))
    (fun samples ->
      let before = Array.copy samples in
      Percentile.of_samples samples = Some (sorted_reference samples) && samples = before)

(* ------------------------------------------------------------------ *)
(* Pooled witness-capture buffer *)

let test_capbuf_dedup_and_order () =
  let c = Check.Capbuf.create () in
  Check.Capbuf.note_read c ~line:9 ~time:3;
  Check.Capbuf.note_read c ~line:2 ~time:5;
  Check.Capbuf.note_read c ~line:9 ~time:7;
  (* dup: first wins *)
  Check.Capbuf.note_write c ~line:4 ~time:6;
  Check.Capbuf.note_store c ~addr:40 ~value:1;
  Check.Capbuf.note_store c ~addr:40 ~value:2;
  (* stores keep dups *)
  Alcotest.(check (list (pair int int))) "reads sorted, first time kept"
    [ (2, 5); (9, 3) ] (Check.Capbuf.reads c);
  Alcotest.(check (list (pair int int))) "writes" [ (4, 6) ] (Check.Capbuf.writes c);
  Alcotest.(check (list (pair int int))) "stores in program order"
    [ (40, 1); (40, 2) ] (Check.Capbuf.stores c);
  Check.Capbuf.reset c;
  Alcotest.(check (list (pair int int))) "reset empties reads" [] (Check.Capbuf.reads c);
  Alcotest.(check (list (pair int int))) "reset empties stores" [] (Check.Capbuf.stores c)

let test_capbuf_growth () =
  (* Push past the initial capacity (16) on every channel. *)
  let c = Check.Capbuf.create () in
  for i = 0 to 99 do
    Check.Capbuf.note_read c ~line:i ~time:(1000 + i);
    Check.Capbuf.note_write c ~line:i ~time:(2000 + i);
    Check.Capbuf.note_store c ~addr:i ~value:i
  done;
  Alcotest.(check int) "100 reads" 100 (List.length (Check.Capbuf.reads c));
  Alcotest.(check (list (pair int int))) "sorted unique reads"
    (List.init 100 (fun i -> (i, 1000 + i)))
    (Check.Capbuf.reads c);
  Alcotest.(check int) "100 stores" 100 (List.length (Check.Capbuf.stores c))

let test_capbuf_growth_boundary () =
  (* Exactly [initial] = 16 entries fit without growth; the 17th append is
     the growth trigger (grow fires when n = length) and must preserve every
     earlier entry on each channel. *)
  let c = Check.Capbuf.create () in
  for i = 15 downto 0 do
    Check.Capbuf.note_read c ~line:i ~time:(100 + i);
    Check.Capbuf.note_write c ~line:i ~time:(200 + i);
    Check.Capbuf.note_store c ~addr:i ~value:(-i)
  done;
  Alcotest.(check (list (pair int int))) "16 reads fill the initial arrays"
    (List.init 16 (fun i -> (i, 100 + i)))
    (Check.Capbuf.reads c);
  (* A duplicate at the boundary must not grow or append... *)
  Check.Capbuf.note_read c ~line:0 ~time:999;
  Alcotest.(check int) "dup at the boundary ignored" 16 (List.length (Check.Capbuf.reads c));
  (* ...while the 17th distinct entry grows and keeps all 16 predecessors. *)
  Check.Capbuf.note_read c ~line:16 ~time:116;
  Check.Capbuf.note_write c ~line:16 ~time:216;
  Check.Capbuf.note_store c ~addr:16 ~value:(-16);
  Alcotest.(check (list (pair int int))) "17 reads after growth"
    (List.init 17 (fun i -> (i, 100 + i)))
    (Check.Capbuf.reads c);
  Alcotest.(check (list (pair int int))) "17 writes after growth"
    (List.init 17 (fun i -> (i, 200 + i)))
    (Check.Capbuf.writes c);
  Alcotest.(check (list (pair int int))) "stores keep program order across growth"
    (List.init 16 (fun i -> (15 - i, -(15 - i))) @ [ (16, -16) ])
    (Check.Capbuf.stores c);
  (* Reset then refill past the boundary again: the grown arrays are reused. *)
  Check.Capbuf.reset c;
  Alcotest.(check (list (pair int int))) "reset empties" [] (Check.Capbuf.reads c);
  for i = 0 to 16 do
    Check.Capbuf.note_read c ~line:(50 + i) ~time:i
  done;
  Alcotest.(check int) "refill past boundary" 17 (List.length (Check.Capbuf.reads c))

(* Capture runs through the pooled buffers now; the observation-only
   contract must survive the pooling: a checked run's statistics are
   bit-identical to the unchecked run's, closed and open loop alike. *)
let small_closed preset =
  { (Config.with_retries preset 1) with Config.cores = 4; seed = 11 }

let test_pooled_capture_bit_identical_closed () =
  List.iter
    (fun (name, preset) ->
      let cfg = small_closed preset in
      let sim = { Clear_repro.Run.cfg; workload = Workloads.Arrayswap.workload; seed = 11 } in
      let plain = Clear_repro.Run.run_sim sim in
      let checked, verdict = Posthoc.run_sim_checked sim in
      Alcotest.(check bool) (name ^ " verdict clean") true (Check.Verdict.ok verdict);
      Alcotest.(check int) (name ^ " cycles") (Machine.Stats.total_cycles plain)
        (Machine.Stats.total_cycles checked);
      Alcotest.(check int) (name ^ " commits") (Machine.Stats.commits plain)
        (Machine.Stats.commits checked);
      Alcotest.(check int) (name ^ " aborts") (Machine.Stats.aborts plain)
        (Machine.Stats.aborts checked);
      Alcotest.(check int) (name ^ " instrs") (Machine.Stats.instrs plain)
        (Machine.Stats.instrs checked))
    [ ("B", Config.baseline); ("C", Config.clear_rw) ]

let open_cfg ?(cap = 0) ?(requests = 300) ?(rate = 80.0) preset =
  let q =
    { Config.open_rate = rate; open_requests = requests; open_process = Config.Open_poisson;
      open_queue_cap = cap }
  in
  Config.with_openloop (small_closed preset) (Some q)

let open_workload = lazy (Workloads.Registry.open_scaled "arrayswap" ~keys:(1 lsl 12) ~theta:6.0)

let test_pooled_capture_bit_identical_open () =
  let cfg = open_cfg Config.clear_rw in
  let w = Lazy.force open_workload in
  let plain = Driver.run_point ~check:false cfg w in
  let checked = Driver.run_point ~check:true cfg w in
  Alcotest.(check bool) "oracle clean" true checked.Driver.oracle_ok;
  Alcotest.(check bool) "checked flag" true checked.Driver.checked;
  (* Everything outside the check-reporting fields is bit-identical. *)
  Alcotest.(check bool) "same lifecycle + latency" true
    ({
       checked with
       Driver.checked = false;
       stream = false;
       oracle_ok = plain.Driver.oracle_ok;
       check_live_lines = 0;
       check_retired = 0;
     }
    = plain)

let test_streamed_point_bit_identical () =
  (* The streaming checker is observation-only too: a checked point must
     agree with the unchecked point on every lifecycle and latency field,
     report a clean oracle, and expose its memory counters. *)
  let cfg = open_cfg Config.clear_rw in
  let w = Lazy.force open_workload in
  let plain = Driver.run_point ~check:false cfg w in
  let streamed = Driver.run_point ~check:true cfg w in
  Alcotest.(check bool) "oracle clean" true streamed.Driver.oracle_ok;
  Alcotest.(check bool) "stream flag follows checked" true streamed.Driver.stream;
  Alcotest.(check bool) "streamed point otherwise bit-identical" true
    ({
       streamed with
       Driver.checked = false;
       stream = false;
       oracle_ok = plain.Driver.oracle_ok;
       check_live_lines = plain.Driver.check_live_lines;
       check_retired = plain.Driver.check_retired;
     }
    = plain);
  Alcotest.(check bool) "live-line high water reported" true (streamed.Driver.check_live_lines > 0);
  Alcotest.(check int) "unchecked point has no checker state" 0 plain.Driver.check_live_lines;
  (* The ignored [?stream] argument changes nothing. *)
  Alcotest.(check bool) "?stream ignored" true
    (Driver.run_point ~check:true ~stream:false cfg w = streamed)

(* ------------------------------------------------------------------ *)
(* Request-lifecycle conservation and saturation *)

let test_open_conservation () =
  let r = Driver.run_point (open_cfg Config.clear_rw) (Lazy.force open_workload) in
  Alcotest.(check int) "requests generated" 300 r.Driver.requests;
  Alcotest.(check int) "unbounded queue drops nothing" 0 r.Driver.dropped;
  Alcotest.(check int) "admitted = requests - dropped" r.Driver.requests
    (r.Driver.admitted + r.Driver.dropped);
  Alcotest.(check int) "every admitted request commits" r.Driver.admitted r.Driver.completed;
  (match r.Driver.sojourn with
  | None -> Alcotest.fail "sojourn report expected"
  | Some p ->
      Alcotest.(check int) "sojourn sample per completion" r.Driver.completed p.Percentile.count;
      Alcotest.(check bool) "p50 <= p99 <= p999 <= max" true
        (p.Percentile.p50 <= p.Percentile.p99
        && p.Percentile.p99 <= p.Percentile.p999
        && p.Percentile.p999 <= p.Percentile.max));
  match r.Driver.wait with
  | None -> Alcotest.fail "wait report expected"
  | Some p -> Alcotest.(check int) "wait sample per dispatch" r.Driver.admitted p.Percentile.count

let test_open_saturation_drops () =
  (* A tiny bounded queue under heavy offered load must shed requests,
     and the books must still balance. *)
  let r =
    Driver.run_point (open_cfg ~cap:8 ~rate:400.0 Config.baseline) (Lazy.force open_workload)
  in
  Alcotest.(check bool) "overload sheds load" true (r.Driver.dropped > 0);
  Alcotest.(check int) "conservation under drops" r.Driver.requests
    (r.Driver.admitted + r.Driver.dropped);
  Alcotest.(check int) "admitted all complete" r.Driver.admitted r.Driver.completed;
  Alcotest.(check bool) "queue high-water within cap" true (r.Driver.qdepth_hw <= 8)

(* One small point pinned whole: bursty arrivals into a two-deep backlog at
   low load, so idle cores park between arrivals and wake at each one, and
   bursts still overflow the cap. Any change to how waiting cores are
   queued, woken or counted moves one of these numbers. *)
let test_burst_point_pinned () =
  let q =
    { Config.open_rate = 8.0; open_requests = 400; open_process = Config.Open_burst { heat = 1.5 };
      open_queue_cap = 2 }
  in
  let r =
    Driver.run_point (Config.with_openloop (small_closed Config.clear_rw) (Some q)) (Lazy.force open_workload)
  in
  let pct name = function
    | None -> Alcotest.failf "%s report expected" name
    | Some p -> Percentile.(p.count, p.mean, p.max, [ p.p50; p.p99; p.p999 ])
  in
  let report = Alcotest.(pair (pair int (float 0.0)) (pair int (list int))) in
  let nest (c, m, mx, l) = ((c, m), (mx, l)) in
  Alcotest.(check (list int)) "events, admitted, dropped, completed" [ 3340; 350; 50; 350 ]
    [ r.Driver.events; r.Driver.admitted; r.Driver.dropped; r.Driver.completed ];
  (* Means as sum / count: every sample sum is an exact integer. *)
  Alcotest.check report "sojourn: count, mean, max, p50/p99/p999"
    (nest (350, 193_849.0 /. 350.0, 951, [ 525; 872; 951 ]))
    (nest (pct "sojourn" r.Driver.sojourn));
  Alcotest.check report "wait: count, mean, max, p50/p99/p999"
    (nest (350, 22_015.0 /. 350.0, 414, [ 0; 372; 414 ]))
    (nest (pct "wait" r.Driver.wait))

(* ------------------------------------------------------------------ *)
(* Arrival schedule: the Poisson draw is clamped away from 1.0 so a tail
   sample can never overflow to a non-finite gap, and the stream is pinned
   bit-for-bit against both a golden prefix and an independent
   reimplementation of the draw loop. *)

let test_openq_poisson_pinned () =
  let rate = 80.0 and requests = 4096 in
  let got =
    Machine.Openq.generate ~rate ~requests ~process:Config.Open_poisson (Simrt.Rng.create 42)
  in
  (* Golden prefix for seed 42 at 80 req/kcycle. *)
  Alcotest.(check (array int)) "golden prefix"
    [| 17; 19; 23; 28; 29; 54; 57; 77; 82; 94 |]
    (Array.sub got 0 10);
  (* Independent reimplementation, clamp included, from the same seed. *)
  let expected =
    let rng = Simrt.Rng.create 42 in
    let mean = 1000.0 /. rate in
    let t = ref 0 in
    Array.init requests (fun _ ->
        let u = Float.min (Simrt.Rng.float rng 1.0) 0.999999 in
        t := !t + max 1 (int_of_float (Float.round (-.mean *. log (1.0 -. u))));
        !t)
  in
  Alcotest.(check (array int)) "bit-identical to the documented draw" expected got;
  (* Every gap is >= 1 cycle and below the clamp's ~13.8-mean ceiling:
     no draw can reach the non-finite region the clamp guards against. *)
  let max_gap = int_of_float (ceil (1000.0 /. rate *. -.log (1.0 -. 0.999999))) in
  let ok = ref true in
  Array.iteri
    (fun i t ->
      let gap = t - if i = 0 then 0 else got.(i - 1) in
      if gap < 1 || gap > max_gap then ok := false)
    got;
  Alcotest.(check bool) "gaps in [1, clamp ceiling]" true !ok

let test_openq_burst_pinned () =
  let gen () =
    Machine.Openq.generate ~rate:80.0 ~requests:512
      ~process:(Config.Open_burst { heat = 1.5 })
      (Simrt.Rng.create 42)
  in
  let a = gen () in
  Alcotest.(check (array int)) "golden prefix"
    [| 20; 21; 23; 26; 27; 56; 57; 81; 84; 97 |]
    (Array.sub a 0 10);
  Alcotest.(check (array int)) "same seed, same schedule" a (gen ());
  let ok = ref true in
  Array.iteri (fun i t -> if t <= (if i = 0 then 0 else a.(i - 1)) then ok := false) a;
  Alcotest.(check bool) "strictly increasing" true !ok

(* ------------------------------------------------------------------ *)
(* Determinism: job count must not change a byte of the sweep *)

let tiny_sweep jobs =
  {
    Sweep.default_options with
    Sweep.keys = 1 lsl 12;
    loads = [ 40.0; 80.0 ];
    requests = 200;
    jobs;
    check = true;
  }

let test_sweep_jobs_identical () =
  (* The CLI clamps --jobs to the host's domain count, so exercise the
     library path directly: parallel and sequential sweeps must serialise
     to the same bytes. *)
  let o1 = tiny_sweep 1 and o2 = tiny_sweep 2 in
  let j1 = Report.Json.to_string (Sweep.to_json o1 (Sweep.run o1)) in
  let j2 = Report.Json.to_string (Sweep.to_json o2 (Sweep.run o2)) in
  Alcotest.(check string) "jobs:2 sweep JSON equals jobs:1" j1 j2

let test_sweep_repeat_identical () =
  let o = tiny_sweep 1 in
  let j1 = Report.Json.to_string (Sweep.to_json o (Sweep.run o)) in
  let j2 = Report.Json.to_string (Sweep.to_json o (Sweep.run o)) in
  Alcotest.(check string) "same seed, same bytes" j1 j2

(* ------------------------------------------------------------------ *)
(* Suite cache: open-system runs bypass it in both directions *)

let test_open_cache_bypass () =
  ignore (Clear_repro.Suite_cache.clear ());
  let closed = small_closed Config.clear_rw in
  let opened = open_cfg Config.clear_rw in
  Alcotest.(check bool) "closed cfg cacheable" true (Clear_repro.Suite_cache.cacheable closed);
  Alcotest.(check bool) "open cfg not cacheable" false (Clear_repro.Suite_cache.cacheable opened);
  (* A cached suite run populates a shard for the closed config... *)
  let w = Workloads.Arrayswap.workload in
  let name = w.Machine.Workload.name in
  let stats = Clear_repro.Run.run_sim { Clear_repro.Run.cfg = closed; workload = w; seed = 11 } in
  Clear_repro.Suite_cache.save_shard closed ~workload:name ~seed:11 stats;
  Alcotest.(check bool) "closed shard hits" true
    (Clear_repro.Suite_cache.load_shard closed ~workload:name ~seed:11 <> None);
  (* ...but the open-loop sweep that follows must not read or write any
     shard: no stale closed-loop stats can splice into the curve, and no
     open-loop stats (missing the lifecycle data) can poison the cache. *)
  Alcotest.(check bool) "open load misses" true
    (Clear_repro.Suite_cache.load_shard opened ~workload:name ~seed:11 = None);
  Clear_repro.Suite_cache.save_shard opened ~workload:name ~seed:11 stats;
  Alcotest.(check bool) "open save is a no-op" false
    (Sys.file_exists (Clear_repro.Suite_cache.shard_path opened ~workload:name ~seed:11));
  (* The sweep itself still works with a warm cache sitting on disk. *)
  let r = Driver.run_point opened (Lazy.force open_workload) in
  Alcotest.(check bool) "open point ran for real" true (r.Driver.completed > 0);
  ignore (Clear_repro.Suite_cache.clear ())

(* ------------------------------------------------------------------ *)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "openloop"
    [
      ( "percentile",
        [
          Alcotest.test_case "edges" `Quick test_percentile_edges;
          Alcotest.test_case "documented values" `Quick test_percentile_known;
        ]
        @ qsuite [ prop_percentile_oracle; prop_percentile_selection_matches_sort ] );
      ( "capbuf",
        [
          Alcotest.test_case "dedup and order" `Quick test_capbuf_dedup_and_order;
          Alcotest.test_case "growth" `Quick test_capbuf_growth;
          Alcotest.test_case "growth at the initial boundary" `Quick test_capbuf_growth_boundary;
          Alcotest.test_case "closed-loop stats bit-identical" `Quick
            test_pooled_capture_bit_identical_closed;
          Alcotest.test_case "open-loop stats bit-identical" `Quick
            test_pooled_capture_bit_identical_open;
          Alcotest.test_case "streamed point bit-identical" `Quick
            test_streamed_point_bit_identical;
        ] );
      ( "arrivals",
        [
          Alcotest.test_case "poisson schedule pinned" `Quick test_openq_poisson_pinned;
          Alcotest.test_case "burst schedule pinned" `Quick test_openq_burst_pinned;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "conservation" `Quick test_open_conservation;
          Alcotest.test_case "saturation drops" `Quick test_open_saturation_drops;
          Alcotest.test_case "burst point pinned" `Quick test_burst_point_pinned;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "jobs-invariant sweep" `Quick test_sweep_jobs_identical;
          Alcotest.test_case "repeat-invariant sweep" `Quick test_sweep_repeat_identical;
        ] );
      ( "suite-cache",
        [ Alcotest.test_case "open runs bypass cache" `Quick test_open_cache_bypass ] );
    ]
