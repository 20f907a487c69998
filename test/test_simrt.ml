(* Unit and property tests for the simulator runtime: RNG, event queue,
   statistical summaries, counters, domain pool. *)

module Rng = Simrt.Rng
module Event_queue = Simrt.Event_queue
module Summary = Simrt.Summary
module Counter = Simrt.Counter
module Pool = Simrt.Pool

let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_deterministic () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next_int64 a) (Rng.next_int64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 7 and b = Rng.create 8 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.next_int64 a = Rng.next_int64 b then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 4)

let test_rng_split_independent () =
  let parent = Rng.create 42 in
  let child1 = Rng.split parent 1 in
  (* Drawing from the parent must not change what a later identical split
     yields. *)
  let _ = Rng.next_int64 parent in
  let child1' = Rng.split parent 1 in
  Alcotest.(check int64) "split is draw-order independent" (Rng.next_int64 child1)
    (Rng.next_int64 child1')

let test_rng_split_distinct () =
  let parent = Rng.create 42 in
  let c1 = Rng.split parent 1 and c2 = Rng.split parent 2 in
  Alcotest.(check bool) "salted splits differ" true (Rng.next_int64 c1 <> Rng.next_int64 c2)

let test_rng_shuffle_permutation () =
  let rng = Rng.create 5 in
  let a = Array.init 50 (fun i -> i) in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 (fun i -> i)) sorted

let test_rng_chance_extremes () =
  let rng = Rng.create 1 in
  Alcotest.(check bool) "p=0" false (Rng.chance rng 0.0);
  Alcotest.(check bool) "p=1" true (Rng.chance rng 1.0)

let prop_int_bounds =
  QCheck.Test.make ~name:"Rng.int stays in bounds" ~count:500
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let rng = Rng.create seed in
      let v = Rng.int rng bound in
      v >= 0 && v < bound)

let prop_int_in_bounds =
  QCheck.Test.make ~name:"Rng.int_in stays in range" ~count:500
    QCheck.(triple small_int (int_range (-100) 100) (int_range 0 200))
    (fun (seed, lo, span) ->
      let rng = Rng.create seed in
      let hi = lo + span in
      let v = Rng.int_in rng lo hi in
      v >= lo && v <= hi)

let prop_zipf_bounds =
  QCheck.Test.make ~name:"Rng.zipf stays in [0, n)" ~count:500
    QCheck.(triple small_int (int_range 1 100) (float_range 0.0 3.0))
    (fun (seed, n, theta) ->
      let rng = Rng.create seed in
      let v = Rng.zipf rng ~n ~theta in
      v >= 0 && v < n)

(* zipf draws exactly one uniform and maps it through u^(1+theta), which
   is pointwise decreasing in theta — so on the same stream, a higher
   theta can never yield a larger index. This is the "more skew means
   more popular keys" guarantee the open-loop harness leans on. *)
let prop_zipf_theta_monotone =
  QCheck.Test.make ~name:"Rng.zipf: higher theta, smaller index (same stream)" ~count:500
    QCheck.(quad small_int (int_range 1 10_000) (float_range 0.01 4.0) (float_range 0.01 4.0))
    (fun (seed, n, t1, t2) ->
      let lo = Float.min t1 t2 and hi = Float.max t1 t2 in
      let a = Rng.zipf (Rng.create seed) ~n ~theta:hi in
      let b = Rng.zipf (Rng.create seed) ~n ~theta:lo in
      a <= b)

let test_zipf_skew () =
  (* With strong skew, index 0's bucket should dominate. *)
  let rng = Rng.create 13 in
  let counts = Array.make 10 0 in
  for _ = 1 to 10_000 do
    let i = Rng.zipf rng ~n:10 ~theta:2.0 in
    counts.(i) <- counts.(i) + 1
  done;
  Alcotest.(check bool) "low indices dominate" true (counts.(0) > counts.(9) * 3)

(* ------------------------------------------------------------------ *)
(* Event_queue *)

let test_queue_ordering () =
  let q = Event_queue.create () in
  Event_queue.push q ~time:5 "c";
  Event_queue.push q ~time:1 "a";
  Event_queue.push q ~time:3 "b";
  let pop () = match Event_queue.pop q with Some (_, x) -> x | None -> "-" in
  Alcotest.(check string) "first" "a" (pop ());
  Alcotest.(check string) "second" "b" (pop ());
  Alcotest.(check string) "third" "c" (pop ());
  Alcotest.(check bool) "empty" true (Event_queue.is_empty q)

let test_queue_fifo_ties () =
  let q = Event_queue.create () in
  List.iter (fun x -> Event_queue.push q ~time:7 x) [ 1; 2; 3; 4 ];
  let order = List.init 4 (fun _ -> match Event_queue.pop q with Some (_, x) -> x | None -> -1) in
  Alcotest.(check (list int)) "FIFO among equal times" [ 1; 2; 3; 4 ] order

let test_queue_peek () =
  let q = Event_queue.create () in
  Alcotest.(check (option int)) "empty peek" None (Event_queue.peek_time q);
  Event_queue.push q ~time:9 ();
  Event_queue.push q ~time:2 ();
  Alcotest.(check (option int)) "min time" (Some 2) (Event_queue.peek_time q)

let test_queue_clear () =
  let q = Event_queue.create () in
  Event_queue.push q ~time:1 ();
  Event_queue.clear q;
  Alcotest.(check int) "cleared" 0 (Event_queue.length q)

let prop_queue_sorted =
  QCheck.Test.make ~name:"pops come out time-sorted" ~count:200
    QCheck.(list (int_range 0 10_000))
    (fun times ->
      let q = Event_queue.create () in
      List.iter (fun t -> Event_queue.push q ~time:t t) times;
      let rec drain acc =
        match Event_queue.pop q with Some (t, _) -> drain (t :: acc) | None -> List.rev acc
      in
      let popped = drain [] in
      popped = List.sort compare times)

(* The simulator's determinism hinges on the full (time, seq) order: among
   equal times, events pop in push order. A narrow time range forces many
   ties; payloads carry the push index so the expected order is the stable
   sort of indices by time. *)
let prop_queue_time_seq_sorted =
  QCheck.Test.make ~name:"pop order is (time, seq)-sorted, FIFO among ties" ~count:300
    QCheck.(list (int_range 0 20))
    (fun times ->
      let q = Event_queue.create () in
      List.iteri (fun i t -> Event_queue.push q ~time:t (t, i)) times;
      let rec drain acc =
        match Event_queue.pop q with Some (_, p) -> drain (p :: acc) | None -> List.rev acc
      in
      let popped = drain [] in
      let expected =
        List.stable_sort
          (fun (t1, _) (t2, _) -> compare t1 t2)
          (List.mapi (fun i t -> (t, i)) times)
      in
      popped = expected)

(* Interleaved pushes and pops must preserve the same invariant: what pops
   next is always the earliest (time, seq) of what is currently queued. *)
let prop_queue_interleaved =
  QCheck.Test.make ~name:"interleaved push/pop stays (time, seq)-sorted" ~count:200
    QCheck.(list (option (int_range 0 10)))
    (fun script ->
      let q = Event_queue.create () in
      let module S = Set.Make (struct
        type t = int * int

        let compare = compare
      end) in
      let live = ref S.empty in
      let idx = ref 0 in
      List.for_all
        (function
          | Some t ->
              Event_queue.push q ~time:t (t, !idx);
              live := S.add (t, !idx) !live;
              incr idx;
              true
          | None -> (
              match Event_queue.pop q with
              | None -> S.is_empty !live
              | Some (_, p) ->
                  let expected = S.min_elt !live in
                  live := S.remove expected !live;
                  p = expected))
        script)

(* The wheel against one plain priority queue holding every event. The
   model numbers each insert from one counter and pops by (time, seq).
   Times come from narrow clusters a window or more apart, so ties, events
   beyond the window (the overflow heap), window advances and pushes below
   the earliest queued time (which lower the window) are all frequent.
   Payloads whose low bit is set count as parked for [requeue_run]. Every
   step's observable result must agree with the model's: the earliest
   (time, payload), the length, a run's size, a raised [Invalid_argument];
   and so must the final drain. *)
module Wheel_model = struct
  module S = Set.Make (struct
    type t = int * int * int (* time, seq, payload *)

    let compare (t1, s1, _) (t2, s2, _) = compare (t1, s1) (t2, s2)
  end)

  type t = { mutable set : S.t; mutable seq : int }

  let create () = { set = S.empty; seq = 0 }

  let insert m ~time payload =
    m.set <- S.add (time, m.seq, payload) m.set;
    m.seq <- m.seq + 1

  let pop m =
    let ((time, _, payload) as e) = S.min_elt m.set in
    m.set <- S.remove e m.set;
    (time, payload)

  (* Pop the earliest event and the consecutive same-time events behind it
     that satisfy [same]; their payloads, in order. *)
  let pop_run m same =
    let time, first = pop m in
    let rec more acc =
      match S.min_elt_opt m.set with
      | Some (t, _, x) when t = time && same x ->
          ignore (pop m);
          more (x :: acc)
      | _ -> List.rev acc
    in
    more [ first ]
end

type wheel_op = W_push of int * bool | W_pop_min | W_replace_min of int * bool | W_requeue_run of int

let wheel_op_gen =
  let open QCheck.Gen in
  let time = map2 ( + ) (oneofl [ 0; 1_020; 2_050; 5_000 ]) (int_range 0 6) in
  frequency
    [
      (4, map2 (fun t p -> W_push (t, p)) time bool);
      (3, return W_pop_min);
      (2, map2 (fun t p -> W_replace_min (t, p)) time bool);
      (3, map (fun t -> W_requeue_run t) time);
    ]

let show_wheel_op = function
  | W_push (t, p) -> Printf.sprintf "push %d%s" t (if p then " parked" else "")
  | W_pop_min -> "pop_min"
  | W_replace_min (t, p) -> Printf.sprintf "replace_min %d%s" t (if p then " parked" else "")
  | W_requeue_run t -> Printf.sprintf "requeue_run %d" t

let prop_wheel_matches_model =
  QCheck.Test.make ~name:"wheel matches a (time, seq) model" ~count:500
    (QCheck.make ~print:(QCheck.Print.list show_wheel_op) QCheck.Gen.(list_size (int_range 0 120) wheel_op_gen))
    (fun script ->
      let q = Event_queue.create () in
      let m = Wheel_model.create () in
      let parked x = x land 1 = 1 in
      let next = ref 0 in
      let fresh p =
        incr next;
        (2 * !next) + Bool.to_int p
      in
      let raises f = match f () with _ -> false | exception Invalid_argument _ -> true in
      let empty () = Wheel_model.S.is_empty m.set in
      (* The queue's earliest event is the model's. *)
      let front_agrees () =
        empty ()
        ||
        let time, _, x = Wheel_model.S.min_elt m.set in
        Event_queue.min_time q = time && Event_queue.min_payload q = x
      in
      let step = function
        | W_push (time, p) ->
            let x = fresh p in
            Event_queue.push q ~time x;
            Wheel_model.insert m ~time x;
            true
        | W_pop_min ->
            if empty () then raises (fun () -> Event_queue.pop_min q)
            else snd (Wheel_model.pop m) = Event_queue.pop_min q
        | W_replace_min (time, p) ->
            let x = fresh p in
            if empty () then raises (fun () -> Event_queue.replace_min q ~time x)
            else begin
              ignore (Wheel_model.pop m);
              Wheel_model.insert m ~time x;
              Event_queue.replace_min q ~time x;
              true
            end
        | W_requeue_run time ->
            if empty () then raises (fun () -> Event_queue.requeue_run q ~time parked)
            else begin
              let run = Wheel_model.pop_run m parked in
              List.iter (Wheel_model.insert m ~time) run;
              Event_queue.requeue_run q ~time parked = List.length run
            end
      in
      let ok =
        List.for_all
          (fun op -> step op && Event_queue.length q = Wheel_model.S.cardinal m.set && front_agrees ())
          script
      in
      let rec drain () =
        match Event_queue.pop q with
        | None -> empty ()
        | Some got -> got = Wheel_model.pop m && drain ()
      in
      ok && drain ())

(* ------------------------------------------------------------------ *)
(* Summary *)

let test_mean () =
  check_float "mean" 2.0 (Summary.mean [ 1.0; 2.0; 3.0 ]);
  check_float "empty" 0.0 (Summary.mean [])

let test_median () =
  check_float "odd" 2.0 (Summary.median [ 3.0; 1.0; 2.0 ]);
  check_float "even" 2.5 (Summary.median [ 1.0; 2.0; 3.0; 4.0 ])

let test_trimmed_mean () =
  (* The outlier 100 is farthest from the median and gets dropped. *)
  check_float "drops outlier" 2.0 (Summary.trimmed_mean ~trim:1 [ 1.0; 2.0; 3.0; 100.0 ]);
  check_float "degrades to mean" 51.0 (Summary.trimmed_mean ~trim:5 [ 2.0; 100.0 ])

let test_geomean () =
  check_float "geomean" 2.0 (Summary.geomean [ 1.0; 2.0; 4.0 ]);
  check_float "identity" 5.0 (Summary.geomean [ 5.0 ])

let test_stddev () =
  check_float "constant" 0.0 (Summary.stddev [ 3.0; 3.0; 3.0 ]);
  check_float "simple" 1.0 (Summary.stddev [ 1.0; 3.0; 1.0; 3.0 ])

let test_min_max () =
  let lo, hi = Summary.min_max [ 3.0; 1.0; 2.0 ] in
  check_float "min" 1.0 lo;
  check_float "max" 3.0 hi;
  Alcotest.check_raises "empty raises" (Invalid_argument "Summary.min_max: empty list") (fun () ->
      ignore (Summary.min_max []))

let prop_trimmed_mean_bracketed =
  QCheck.Test.make ~name:"trimmed mean lies within [min, max]" ~count:200
    QCheck.(pair (int_range 0 3) (list_of_size Gen.(int_range 1 20) (float_range (-100.0) 100.0)))
    (fun (trim, xs) ->
      let m = Summary.trimmed_mean ~trim xs in
      let lo, hi = Summary.min_max xs in
      m >= lo -. 1e-9 && m <= hi +. 1e-9)

let prop_median_bracketed =
  QCheck.Test.make ~name:"median lies within [min, max]" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 20) (float_range (-100.0) 100.0))
    (fun xs ->
      let m = Summary.median xs in
      let lo, hi = Summary.min_max xs in
      m >= lo -. 1e-9 && m <= hi +. 1e-9)

let prop_geomean_le_mean =
  QCheck.Test.make ~name:"geomean <= mean for positive values" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 20) (float_range 0.1 100.0))
    (fun xs -> Summary.geomean xs <= Summary.mean xs +. 1e-9)

(* ------------------------------------------------------------------ *)
(* Pool *)

let test_pool_map_order () =
  let xs = List.init 100 (fun i -> i) in
  Alcotest.(check (list int)) "order preserved, all results present"
    (List.map (fun x -> x * x) xs)
    (Pool.parallel_map ~jobs:4 (fun x -> x * x) xs)

let test_pool_matches_sequential () =
  let xs = List.init 37 (fun i -> i * 3) in
  let f x = (x * 7) mod 11 in
  Alcotest.(check (list int)) "jobs:1 == jobs:5" (Pool.parallel_map ~jobs:1 f xs)
    (Pool.parallel_map ~jobs:5 f xs)

let test_pool_empty_and_singleton () =
  Alcotest.(check (list int)) "empty" [] (Pool.parallel_map ~jobs:4 (fun x -> x) []);
  Alcotest.(check (list int)) "singleton" [ 9 ] (Pool.parallel_map ~jobs:4 (fun x -> x * 9) [ 1 ])

let test_pool_more_jobs_than_work () =
  Alcotest.(check (list int)) "jobs > elements" [ 2; 4 ]
    (Pool.parallel_map ~jobs:16 (fun x -> x * 2) [ 1; 2 ])

let test_pool_exception_propagates () =
  Alcotest.check_raises "exception reaches the caller" (Failure "boom") (fun () ->
      ignore
        (Pool.parallel_map ~jobs:3
           (fun x -> if x = 5 then failwith "boom" else x)
           (List.init 10 (fun i -> i))))

(* Random job counts, sizes and failure points: results must equal the
   sequential map and a raising job must surface as that exception. *)
let prop_pool_hammer =
  QCheck.Test.make ~name:"parallel_map under random jobs and failures" ~count:25
    QCheck.(triple (int_range 1 6) (int_range 0 40) (option (int_range 0 60)))
    (fun (jobs, n, boom) ->
      let xs = List.init n (fun i -> i) in
      let f x = match boom with Some b when x = b -> failwith "hammer" | _ -> (x * 2) + 1 in
      let expect_raise = match boom with Some b -> b < n | None -> false in
      match Pool.parallel_map ~jobs f xs with
      | results -> (not expect_raise) && results = List.init n (fun i -> (i * 2) + 1)
      | exception Failure msg -> expect_raise && msg = "hammer")

(* ------------------------------------------------------------------ *)
(* Lineset *)

module Lineset = Simrt.Lineset

(* Random add/clear script checked against a reference Hashtbl set: size,
   membership and the sorted view must always agree. [None] means clear. *)
let prop_lineset_model =
  QCheck.Test.make ~name:"Lineset agrees with a reference set model" ~count:200
    QCheck.(list (option (int_range 0 60)))
    (fun script ->
      let ls = Lineset.create ~hint:2 () in
      let model = Hashtbl.create 16 in
      let model_sorted () = Hashtbl.fold (fun k () acc -> k :: acc) model [] |> List.sort compare in
      List.for_all
        (function
          | None ->
              Lineset.clear ls;
              Hashtbl.reset model;
              Lineset.is_empty ls
          | Some x ->
              Lineset.add ls x;
              Hashtbl.replace model x ();
              Lineset.mem ls x
              && Lineset.size ls = Hashtbl.length model
              && Lineset.sorted_list ls = model_sorted ()
              && Array.to_list (Lineset.sorted_view ls) = model_sorted ())
        script)

(* The cached sorted view must stay valid (same contents) after later
   mutations — the engine holds attempt-0 footprints across attempts. *)
let test_lineset_view_stable () =
  let ls = Lineset.create () in
  List.iter (Lineset.add ls) [ 5; 1; 9 ];
  let view = Lineset.sorted_view ls in
  Alcotest.(check (array int)) "sorted" [| 1; 5; 9 |] view;
  Lineset.add ls 3;
  Lineset.clear ls;
  Lineset.add ls 42;
  Alcotest.(check (array int)) "old view untouched" [| 1; 5; 9 |] view;
  Alcotest.(check (array int)) "new view current" [| 42 |] (Lineset.sorted_view ls)

let test_lineset_insertion_order () =
  let ls = Lineset.create () in
  List.iter (Lineset.add ls) [ 7; 2; 7; 4; 2 ];
  let seen = ref [] in
  Lineset.iter ls (fun x -> seen := x :: !seen);
  Alcotest.(check (list int)) "dedup, insertion order" [ 7; 2; 4 ] (List.rev !seen)

(* ------------------------------------------------------------------ *)
(* Counter *)

let test_counter_basic () =
  let set = Counter.create_set () in
  Counter.incr set "a";
  Counter.add set "a" 4;
  Counter.incr set "b";
  Alcotest.(check int) "a" 5 (Counter.get set "a");
  Alcotest.(check int) "b" 1 (Counter.get set "b");
  Alcotest.(check int) "missing" 0 (Counter.get set "zzz");
  Alcotest.(check (list (pair string int))) "sorted listing" [ ("a", 5); ("b", 1) ] (Counter.to_list set)

let test_counter_merge () =
  let a = Counter.create_set () and b = Counter.create_set () in
  Counter.add a "x" 2;
  Counter.add b "x" 3;
  Counter.add b "y" 1;
  Counter.merge_into ~dst:a b;
  Alcotest.(check int) "merged x" 5 (Counter.get a "x");
  Alcotest.(check int) "merged y" 1 (Counter.get a "y")

let test_counter_reset () =
  let set = Counter.create_set () in
  Counter.incr set "a";
  Counter.reset set;
  Alcotest.(check int) "reset" 0 (Counter.get set "a")

(* ------------------------------------------------------------------ *)
(* Pagepool *)

(* Each case runs on a fresh domain, whose pool starts empty. *)
let on_fresh_domain f = Domain.join (Domain.spawn f)

let test_pagepool_recycles () =
  on_fresh_domain (fun () ->
      let p = Simrt.Pagepool.take ~len:300 ~fill:5 in
      Alcotest.(check bool) "fresh page filled" true (Array.for_all (( = ) 5) p);
      p.(0) <- 9;
      Simrt.Pagepool.give p;
      let q = Simrt.Pagepool.take ~len:301 ~fill:0 in
      Alcotest.(check bool) "another length gets another page" true (q != p);
      let r = Simrt.Pagepool.take ~len:300 ~fill:(-1) in
      Alcotest.(check bool) "same length gets the given page" true (r == p);
      Alcotest.(check bool) "refilled" true (Array.for_all (( = ) (-1)) r);
      let s = Simrt.Pagepool.take ~len:300 ~fill:0 in
      Alcotest.(check bool) "taken once only" true (s != r))

let test_pagepool_per_domain () =
  let p =
    on_fresh_domain (fun () ->
        let p = Simrt.Pagepool.take ~len:300 ~fill:0 in
        Simrt.Pagepool.give p;
        p)
  in
  let q = on_fresh_domain (fun () -> Simrt.Pagepool.take ~len:300 ~fill:0) in
  Alcotest.(check bool) "another domain's page is not handed out" true (p != q)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "simrt"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "split independent of draws" `Quick test_rng_split_independent;
          Alcotest.test_case "splits distinct" `Quick test_rng_split_distinct;
          Alcotest.test_case "shuffle is a permutation" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "chance extremes" `Quick test_rng_chance_extremes;
          Alcotest.test_case "zipf skew" `Quick test_zipf_skew;
        ]
        @ qsuite [ prop_int_bounds; prop_int_in_bounds; prop_zipf_bounds; prop_zipf_theta_monotone ] );
      ( "event_queue",
        [
          Alcotest.test_case "ordering" `Quick test_queue_ordering;
          Alcotest.test_case "FIFO ties" `Quick test_queue_fifo_ties;
          Alcotest.test_case "peek" `Quick test_queue_peek;
          Alcotest.test_case "clear" `Quick test_queue_clear;
        ]
        @ qsuite
            [
              prop_queue_sorted;
              prop_queue_time_seq_sorted;
              prop_queue_interleaved;
              prop_wheel_matches_model;
            ] );
      ( "pool",
        [
          Alcotest.test_case "map preserves order" `Quick test_pool_map_order;
          Alcotest.test_case "parallel == sequential" `Quick test_pool_matches_sequential;
          Alcotest.test_case "empty and singleton" `Quick test_pool_empty_and_singleton;
          Alcotest.test_case "more jobs than work" `Quick test_pool_more_jobs_than_work;
          Alcotest.test_case "exception propagation" `Quick test_pool_exception_propagates;
        ]
        @ qsuite [ prop_pool_hammer ] );
      ( "lineset",
        [
          Alcotest.test_case "sorted view stable across mutations" `Quick test_lineset_view_stable;
          Alcotest.test_case "iter dedups in insertion order" `Quick test_lineset_insertion_order;
        ]
        @ qsuite [ prop_lineset_model ] );
      ( "summary",
        [
          Alcotest.test_case "mean" `Quick test_mean;
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "trimmed mean" `Quick test_trimmed_mean;
          Alcotest.test_case "geomean" `Quick test_geomean;
          Alcotest.test_case "stddev" `Quick test_stddev;
          Alcotest.test_case "min_max" `Quick test_min_max;
        ]
        @ qsuite [ prop_geomean_le_mean; prop_trimmed_mean_bracketed; prop_median_bracketed ] );
      ( "pagepool",
        [
          Alcotest.test_case "recycles by length" `Quick test_pagepool_recycles;
          Alcotest.test_case "one pool per domain" `Quick test_pagepool_per_domain;
        ] );
      ( "counter",
        [
          Alcotest.test_case "basic" `Quick test_counter_basic;
          Alcotest.test_case "merge" `Quick test_counter_merge;
          Alcotest.test_case "reset" `Quick test_counter_reset;
        ] );
    ]
