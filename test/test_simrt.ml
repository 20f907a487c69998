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

(* Lanes against one plain priority queue holding every event. The model
   numbers each accepted insert from one counter, as the queue does, and
   remembers which lane (or -1, the heap) each event went to, so it knows a
   lane's tail. Times come from a narrow range, so ties and appends below a
   tail are both frequent. Every step's observable result — popped
   (time, payload) pairs, a raised [Invalid_argument], the length — must
   agree, and so must the final drain. *)
module Lane_model = struct
  module S = Set.Make (struct
    type t = int * int * int * int (* time, seq, payload, lane *)

    let compare (t1, s1, _, _) (t2, s2, _, _) = compare (t1, s1) (t2, s2)
  end)

  type t = { mutable set : S.t; mutable seq : int }

  let create () = { set = S.empty; seq = 0 }

  let insert m ~time ~lane payload =
    m.set <- S.add (time, m.seq, payload, lane) m.set;
    m.seq <- m.seq + 1

  (* Time of the lane's last event, if it holds any. *)
  let tail m lane = S.fold (fun (t, _, _, l) acc -> if l = lane then Some t else acc) m.set None

  let below_tail m lane time = match tail m lane with Some t -> time < t | None -> false

  let pop m =
    let ((time, _, payload, _) as e) = S.min_elt m.set in
    m.set <- S.remove e m.set;
    (time, payload)
end

type lane_op =
  | L_push of int
  | L_append of int * int
  | L_pop_min
  | L_replace_min of int
  | L_requeue of int * int

let lane_op_gen =
  let open QCheck.Gen in
  let time = int_range 0 8 and lane = int_range 0 2 in
  frequency
    [
      (3, map (fun t -> L_push t) time);
      (4, map2 (fun l t -> L_append (l, t)) lane time);
      (3, return L_pop_min);
      (2, map (fun t -> L_replace_min t) time);
      (3, map2 (fun l t -> L_requeue (l, t)) lane time);
    ]

let show_lane_op = function
  | L_push t -> Printf.sprintf "push %d" t
  | L_append (l, t) -> Printf.sprintf "append %d %d" l t
  | L_pop_min -> "pop_min"
  | L_replace_min t -> Printf.sprintf "replace_min %d" t
  | L_requeue (l, t) -> Printf.sprintf "requeue %d %d" l t

let prop_lanes_match_one_heap =
  QCheck.Test.make ~name:"lanes pop in one heap's (time, seq) order" ~count:500
    (QCheck.make ~print:(QCheck.Print.list show_lane_op) QCheck.Gen.(list_size (int_range 0 80) lane_op_gen))
    (fun script ->
      let q = Event_queue.create () in
      let lanes = Array.init 3 (fun _ -> Event_queue.add_lane q) in
      let m = Lane_model.create () in
      let next = ref 0 in
      let fresh () =
        incr next;
        !next
      in
      let raises f = match f () with () -> false | exception Invalid_argument _ -> true in
      let popped = ref [] and expected = ref [] in
      let record_pop () =
        let time = Event_queue.min_time q in
        popped := (time, Event_queue.pop_min q) :: !popped;
        expected := Lane_model.pop m :: !expected
      in
      let step = function
        | L_push time ->
            let x = fresh () in
            Event_queue.push q ~time x;
            Lane_model.insert m ~time ~lane:(-1) x;
            true
        | L_append (l, time) ->
            let x = fresh () in
            let below = Lane_model.below_tail m l time in
            if not below then Lane_model.insert m ~time ~lane:l x;
            raises (fun () -> Event_queue.append q lanes.(l) ~time x) = below
        | L_pop_min ->
            if Lane_model.S.is_empty m.set then raises (fun () -> ignore (Event_queue.pop_min q : int))
            else begin
              record_pop ();
              true
            end
        | L_replace_min time ->
            let x = fresh () in
            if Lane_model.S.is_empty m.set then
              raises (fun () -> Event_queue.replace_min q ~time x)
            else begin
              expected := Lane_model.pop m :: !expected;
              Lane_model.insert m ~time ~lane:(-1) x;
              popped := (Event_queue.min_time q, Event_queue.min_payload q) :: !popped;
              Event_queue.replace_min q ~time x;
              true
            end
        | L_requeue (l, time) ->
            let x = fresh () in
            if Lane_model.S.is_empty m.set then raises (fun () -> Event_queue.requeue q lanes.(l) ~time x)
            else begin
              (* Pop first: the lane's tail is judged without the head. *)
              let before = m.set in
              let head = Lane_model.pop m in
              if Lane_model.below_tail m l time then begin
                m.set <- before;
                raises (fun () -> Event_queue.requeue q lanes.(l) ~time x)
              end
              else begin
                expected := head :: !expected;
                Lane_model.insert m ~time ~lane:l x;
                popped := (Event_queue.min_time q, Event_queue.min_payload q) :: !popped;
                Event_queue.requeue q lanes.(l) ~time x;
                true
              end
            end
      in
      let ok =
        List.for_all (fun op -> step op && Event_queue.length q = Lane_model.S.cardinal m.set) script
      in
      while not (Event_queue.is_empty q) do
        record_pop ()
      done;
      ok && Lane_model.S.is_empty m.set && !popped = !expected)

let test_lane_append_below_tail () =
  let q = Event_queue.create () in
  let lane = Event_queue.add_lane q in
  Event_queue.append q lane ~time:5 "a";
  Event_queue.append q lane ~time:5 "b";
  Alcotest.check_raises "below the tail" (Invalid_argument "Event_queue.append: time below the lane's tail")
    (fun () -> Event_queue.append q lane ~time:4 "c");
  Alcotest.(check int) "rejected append leaves the queue alone" 2 (Event_queue.length q);
  Event_queue.push q ~time:1 "h";
  let order = List.init 3 (fun _ -> match Event_queue.pop q with Some (_, x) -> x | None -> "-") in
  Alcotest.(check (list string)) "heap before lane, lane FIFO" [ "h"; "a"; "b" ] order;
  (* An emptied lane takes any time again. *)
  Event_queue.append q lane ~time:0 "d";
  Alcotest.(check (option int)) "emptied lane restarts" (Some 0) (Event_queue.peek_time q)

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

(* The completion protocol is single-submitter by contract; a second
   concurrent [map] must be rejected, not silently interleaved. *)
let test_pool_single_submitter_guard () =
  let p = Pool.create ~jobs:2 in
  Fun.protect ~finally:(fun () -> Pool.shutdown p) @@ fun () ->
  let started = Atomic.make false and release = Atomic.make false in
  let submitter =
    Domain.spawn (fun () ->
        Pool.map p
          (fun () ->
            Atomic.set started true;
            while not (Atomic.get release) do
              Domain.cpu_relax ()
            done)
          [ () ])
  in
  while not (Atomic.get started) do
    Domain.cpu_relax ()
  done;
  let rejected =
    match Pool.map p (fun x -> x) [ 1 ] with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  Atomic.set release true;
  ignore (Domain.join submitter : unit list);
  Alcotest.(check bool) "second submitter rejected" true rejected

let test_pool_reusable () =
  let p = Pool.create ~jobs:3 in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown p)
    (fun () ->
      Alcotest.(check int) "size" 3 (Pool.size p);
      Alcotest.(check (list int)) "first batch" [ 1; 2; 3 ] (Pool.map p (fun x -> x + 1) [ 0; 1; 2 ]);
      Alcotest.(check (list string)) "second batch, other type" [ "a!"; "b!" ]
        (Pool.map p (fun s -> s ^ "!") [ "a"; "b" ]))

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
          Alcotest.test_case "lane append below tail" `Quick test_lane_append_below_tail;
        ]
        @ qsuite
            [
              prop_queue_sorted;
              prop_queue_time_seq_sorted;
              prop_queue_interleaved;
              prop_lanes_match_one_heap;
            ] );
      ( "pool",
        [
          Alcotest.test_case "map preserves order" `Quick test_pool_map_order;
          Alcotest.test_case "parallel == sequential" `Quick test_pool_matches_sequential;
          Alcotest.test_case "empty and singleton" `Quick test_pool_empty_and_singleton;
          Alcotest.test_case "more jobs than work" `Quick test_pool_more_jobs_than_work;
          Alcotest.test_case "exception propagation" `Quick test_pool_exception_propagates;
          Alcotest.test_case "pool reuse across batches" `Quick test_pool_reusable;
          Alcotest.test_case "single-submitter guard" `Quick test_pool_single_submitter_guard;
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
