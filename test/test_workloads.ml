(* Tests for the workload definitions themselves: layout, drivers, setup
   postconditions, AR shape. *)

module Workload = Machine.Workload
module Store = Mem.Store
module Rng = Simrt.Rng
module P = Isa.Program

let test_layout_alignment () =
  let l = Workloads.Layout.create () in
  let a = Workloads.Layout.alloc_line l in
  Alcotest.(check int) "line aligned" 0 (a mod 8);
  let _ = Workloads.Layout.alloc_words l 3 in
  let b = Workloads.Layout.alloc_line l in
  Alcotest.(check int) "realigned after packed alloc" 0 (b mod 8);
  Alcotest.(check bool) "monotonic" true (b > a);
  let c = Workloads.Layout.alloc_lines l 4 in
  Alcotest.(check int) "multi-line block" 0 (c mod 8);
  Alcotest.(check bool) "high-water mark" true (Workloads.Layout.used_words l >= c + 32)

let test_registry_complete () =
  Alcotest.(check int) "19 benchmarks" 19 (List.length Workloads.Registry.all);
  Alcotest.(check int) "9 data structures" 9 (List.length Workloads.Registry.data_structures);
  Alcotest.(check int) "10 STAMP kernels" 10 (List.length Workloads.Registry.stamp);
  Alcotest.(check bool) "find works" true ((Workloads.Registry.find "bst").Workload.name = "bst");
  Alcotest.check_raises "unknown raises" Not_found (fun () ->
      ignore (Workloads.Registry.find "nope"))

let test_registry_names_unique () =
  let names = Workloads.Registry.names in
  Alcotest.(check int) "unique names" (List.length names)
    (List.length (List.sort_uniq compare names))

let test_ar_ids_unique_per_workload () =
  List.iter
    (fun (w : Workload.t) ->
      let ids = List.map (fun (ar : P.ar) -> ar.P.id) w.ars in
      Alcotest.(check int) (w.name ^ " AR ids unique") (List.length ids)
        (List.length (List.sort_uniq compare ids)))
    Workloads.Registry.all

let test_table1_ar_counts () =
  let expected =
    [
      ("arrayswap", 2); ("bitcoin", 1); ("bst", 3); ("deque", 2); ("hashmap", 3); ("mwobject", 1);
      ("queue", 2); ("stack", 2); ("sorted-list", 3); ("bayes", 14); ("genome", 5); ("intruder", 3);
      ("kmeans-h", 3); ("kmeans-l", 3); ("labyrinth", 3); ("ssca2", 3); ("vacation-h", 3);
      ("vacation-l", 3); ("yada", 6);
    ]
  in
  List.iter
    (fun (name, count) ->
      let w = Workloads.Registry.find name in
      Alcotest.(check int) (name ^ " AR count") count (List.length w.Workload.ars))
    expected

(* Drivers must produce ops whose registers point inside the workload's
   declared memory, and whose AR belongs to the workload. *)
let test_driver_ops_well_formed () =
  List.iter
    (fun (w : Workload.t) ->
      let store = Store.create ~words:(max w.memory_words (1 lsl 18)) in
      w.setup store (Rng.create 1);
      let driver = w.make_driver ~tid:0 ~threads:4 store (Rng.create 2) in
      for _ = 1 to 200 do
        let op = driver () in
        Alcotest.(check bool)
          (w.name ^ " op uses a static AR")
          true
          (List.exists (fun (ar : P.ar) -> ar == op.Workload.ar) w.ars);
        List.iter
          (fun (r, v) ->
            Alcotest.(check bool) (w.name ^ " register index valid") true (r >= 0 && r < 32);
            ignore v)
          op.Workload.init_regs
      done)
    Workloads.Registry.all

let test_setup_idempotent_under_seed () =
  (* Same seed -> byte-identical initial memory. *)
  List.iter
    (fun (w : Workload.t) ->
      let words = max w.memory_words (1 lsl 18) in
      let s1 = Store.create ~words and s2 = Store.create ~words in
      w.setup s1 (Rng.create 7);
      w.setup s2 (Rng.create 7);
      let same = ref true in
      for i = 0 to words - 1 do
        if Store.read s1 i <> Store.read s2 i then same := false
      done;
      Alcotest.(check bool) (w.name ^ " setup deterministic") true !same)
    Workloads.Registry.all

let test_bst_setup_valid_tree () =
  let w = Workloads.Bst.workload in
  let store = Store.create ~words:w.Workload.memory_words in
  w.Workload.setup store (Rng.create 3);
  let root = Store.read store 64 in
  let rec check node lo hi =
    if node <> 0 then begin
      let key = Store.read store node in
      Alcotest.(check bool) "bst order" true (key > lo && key < hi);
      check (Store.read store (node + 1)) lo key;
      check (Store.read store (node + 2)) key hi
    end
  in
  check root min_int max_int

let test_sorted_list_setup_sorted () =
  let w = Workloads.Sorted_list.workload in
  let store = Store.create ~words:w.Workload.memory_words in
  w.Workload.setup store (Rng.create 3);
  let rec walk node last =
    if node <> 0 then begin
      let key = Store.read store node in
      Alcotest.(check bool) "ascending" true (key > last);
      walk (Store.read store (node + 1)) key
    end
  in
  walk (Store.read store 64) min_int

let test_bitcoin_setup_balances () =
  let w = Workloads.Bitcoin.make ~wallets:8 () in
  let store = Store.create ~words:w.Workload.memory_words in
  w.Workload.setup store (Rng.create 3);
  for i = 0 to 7 do
    let wallet = Store.read store (64 + i) in
    Alcotest.(check int) "initial balance" 10_000 (Store.read store wallet)
  done

let test_vacation_chains_intact () =
  let w = Workloads.Vacation.make ~resources:3 ~chain:4 ~name:"vac-test" () in
  let store = Store.create ~words:w.Workload.memory_words in
  w.Workload.setup store (Rng.create 3);
  (* every chain has exactly [chain] records *)
  for r = 0 to 2 do
    let head = 64 + (r * 8) in
    let rec count node n = if node = 0 then n else count (Store.read store (node + 3)) (n + 1) in
    Alcotest.(check int) "chain length" 4 (count (Store.read store head) 0)
  done

let test_mailboxes_distinct_lines () =
  let l = Workloads.Layout.create () in
  let boxes = Workloads.Common.mailboxes l ~threads:8 in
  let lines = Array.map (fun a -> a / 8) boxes in
  let unique = Array.to_list lines |> List.sort_uniq compare in
  Alcotest.(check int) "one line each" 8 (List.length unique)

let test_ar_bodies_have_stores_or_mailbox () =
  (* Every AR either writes memory or deposits into a mailbox — no pure
     no-op regions slipped in. *)
  List.iter
    (fun (w : Workload.t) ->
      List.iter
        (fun (ar : P.ar) ->
          Alcotest.(check bool) (w.name ^ "/" ^ ar.P.name ^ " stores something") true
            (P.store_count ar > 0))
        w.ars)
    Workloads.Registry.all

(* Every registry workload's backing-store size and each AR's region
   extents, as the layout computed them. *)
let golden_layout =
  [
    "arrayswap memory_words=448";
    "arrayswap/swap arr:64-447";
    "arrayswap/add_pair arr:64-447";
    "bitcoin memory_words=640";
    "bitcoin/transfer users:64-127 wallet:128-639";
    "bst memory_words=255288";
    "bst/insert bst.node:568-255287 bst.root:64-71 mailbox:72-567";
    "bst/contains bst.node:568-255287 bst.root:64-71 mailbox:72-567";
    "bst/delete bst.node:568-255287 bst.root:64-71 mailbox:72-567";
    "deque memory_words=1088";
    "deque/push_back dq.idx:64-79 dq.slot:80-591 mailbox:592-1087";
    "deque/pop_front dq.idx:64-79 dq.slot:80-591 mailbox:592-1087";
    "hashmap memory_words=254576";
    "hashmap/insert hm.head:64-127 hm.node:64-254575 mailbox:128-623";
    "hashmap/lookup hm.head:64-127 hm.node:64-254575 mailbox:128-623";
    "hashmap/remove hm.head:64-127 hm.node:64-254575 mailbox:128-623";
    "mwobject memory_words=80";
    "mwobject/mw_update mwobj:64-79";
    "queue memory_words=254536";
    "queue/enqueue mailbox:88-583 q.head:64-71 q.node:80-254535 q.tail:72-79";
    "queue/dequeue mailbox:88-583 q.head:64-71 q.node:80-254535 q.tail:72-79";
    "stack memory_words=254520";
    "stack/push mailbox:72-567 st.node:568-254519 st.top:64-71";
    "stack/pop mailbox:72-567 st.node:568-254519 st.top:64-71";
    "sorted-list memory_words=254608";
    "sorted-list/count_matching list.head:64-71 list.node:64-254607 list.stats:72-79 mailbox:80-575";
    "sorted-list/insert list.head:64-71 list.node:64-254607 list.stats:72-79 mailbox:80-575";
    "sorted-list/update_stats list.head:64-71 list.node:64-254607 list.stats:72-79 mailbox:80-575";
    "bayes memory_words=127832";
    "bayes/update_score bay.dir:320-343 bay.idx:64-79 bay.node:128-127831 bay.pdir:344-344 bay.prog:352-359 bay.ring:80-127 bay.var:128-319 mailbox:360-855";
    "bayes/inc_parent_count bay.dir:320-343 bay.idx:64-79 bay.node:128-127831 bay.pdir:344-344 bay.prog:352-359 bay.ring:80-127 bay.var:128-319 mailbox:360-855";
    "bayes/dec_parent_count bay.dir:320-343 bay.idx:64-79 bay.node:128-127831 bay.pdir:344-344 bay.prog:352-359 bay.ring:80-127 bay.var:128-319 mailbox:360-855";
    "bayes/log_progress bay.dir:320-343 bay.idx:64-79 bay.node:128-127831 bay.pdir:344-344 bay.prog:352-359 bay.ring:80-127 bay.var:128-319 mailbox:360-855";
    "bayes/read_scores bay.dir:320-343 bay.idx:64-79 bay.node:128-127831 bay.pdir:344-344 bay.prog:352-359 bay.ring:80-127 bay.var:128-319 mailbox:360-855";
    "bayes/push_task bay.dir:320-343 bay.idx:64-79 bay.node:128-127831 bay.pdir:344-344 bay.prog:352-359 bay.ring:80-127 bay.var:128-319 mailbox:360-855";
    "bayes/pop_task bay.dir:320-343 bay.idx:64-79 bay.node:128-127831 bay.pdir:344-344 bay.prog:352-359 bay.ring:80-127 bay.var:128-319 mailbox:360-855";
    "bayes/add_parent bay.dir:320-343 bay.idx:64-79 bay.node:128-127831 bay.pdir:344-344 bay.prog:352-359 bay.ring:80-127 bay.var:128-319 mailbox:360-855";
    "bayes/remove_parent bay.dir:320-343 bay.idx:64-79 bay.node:128-127831 bay.pdir:344-344 bay.prog:352-359 bay.ring:80-127 bay.var:128-319 mailbox:360-855";
    "bayes/has_parent bay.dir:320-343 bay.idx:64-79 bay.node:128-127831 bay.pdir:344-344 bay.prog:352-359 bay.ring:80-127 bay.var:128-319 mailbox:360-855";
    "bayes/count_parents bay.dir:320-343 bay.idx:64-79 bay.node:128-127831 bay.pdir:344-344 bay.prog:352-359 bay.ring:80-127 bay.var:128-319 mailbox:360-855";
    "bayes/reverse_edge bay.dir:320-343 bay.idx:64-79 bay.node:128-127831 bay.pdir:344-344 bay.prog:352-359 bay.ring:80-127 bay.var:128-319 mailbox:360-855";
    "bayes/sum_family_scores bay.dir:320-343 bay.idx:64-79 bay.node:128-127831 bay.pdir:344-344 bay.prog:352-359 bay.ring:80-127 bay.var:128-319 mailbox:360-855";
    "bayes/touch_family bay.dir:320-343 bay.idx:64-79 bay.node:128-127831 bay.pdir:344-344 bay.prog:352-359 bay.ring:80-127 bay.var:128-319 mailbox:360-855";
    "genome memory_words=254832";
    "genome/hashset_insert gen.hs:64-254831 gen.seg:192-254831 mailbox:384-879";
    "genome/hashset_contains gen.hs:64-254831 gen.seg:192-254831 mailbox:384-879";
    "genome/chain_append gen.hs:64-254831 gen.seg:192-254831 mailbox:384-879";
    "genome/chain_weight gen.hs:64-254831 gen.seg:192-254831 mailbox:384-879";
    "genome/bump_tail_weight gen.hs:64-254831 gen.seg:192-254831 mailbox:384-879";
    "intruder memory_words=1320";
    "intruder/pop_fragment intr.ddir:808-808 intr.det:816-823 intr.fdir:592-615 intr.flow:616-807 intr.frag:80-591 intr.idx:64-79 mailbox:824-1319";
    "intruder/update_flow intr.ddir:808-808 intr.det:816-823 intr.fdir:592-615 intr.flow:616-807 intr.frag:80-591 intr.idx:64-79 mailbox:824-1319";
    "intruder/update_detector intr.ddir:808-808 intr.det:816-823 intr.fdir:592-615 intr.flow:616-807 intr.frag:80-591 intr.idx:64-79 mailbox:824-1319";
    "kmeans-h memory_words=184";
    "kmeans-h/add_point km.center:72-119 km.delta:176-183 km.dir:64-69 km.mdir:168-173 km.members:120-167";
    "kmeans-h/update_membership km.center:72-119 km.delta:176-183 km.dir:64-69 km.mdir:168-173 km.members:120-167";
    "kmeans-h/update_delta km.center:72-119 km.delta:176-183 km.dir:64-69 km.mdir:168-173 km.members:120-167";
    "kmeans-l memory_words=936";
    "kmeans-l/add_point km.center:112-495 km.delta:928-935 km.dir:64-111 km.mdir:880-927 km.members:496-879";
    "kmeans-l/update_membership km.center:112-495 km.delta:928-935 km.dir:64-111 km.mdir:880-927 km.members:496-879";
    "kmeans-l/update_delta km.center:112-495 km.delta:928-935 km.dir:64-111 km.mdir:880-927 km.members:496-879";
    "labyrinth memory_words=2624";
    "labyrinth/claim_path lab.grid:64-639 lab.path:640-2127 mailbox:2128-2623";
    "labyrinth/erase_path lab.grid:64-639 lab.path:640-2127 mailbox:2128-2623";
    "labyrinth/validate_path lab.grid:64-639 lab.path:640-2127 mailbox:2128-2623";
    "ssca2 memory_words=2384";
    "ssca2/inc_degree g.degree:64-831 g.dir:2368-2368 g.edges:832-2367 g.stats:2376-2383";
    "ssca2/write_edge g.degree:64-831 g.dir:2368-2368 g.edges:832-2367 g.stats:2376-2383";
    "ssca2/update_stats g.degree:64-831 g.dir:2368-2368 g.edges:832-2367 g.stats:2376-2383";
    "vacation-h memory_words=1280";
    "vacation-h/reserve mailbox:784-1279 vac.cdir:496-527 vac.cust:528-783 vac.head:64-111 vac.rec:112-495";
    "vacation-h/cancel mailbox:784-1279 vac.cdir:496-527 vac.cust:528-783 vac.head:64-111 vac.rec:112-495";
    "vacation-h/update_customer mailbox:784-1279 vac.cdir:496-527 vac.cust:528-783 vac.head:64-111 vac.rec:112-495";
    "vacation-l memory_words=2192";
    "vacation-l/reserve mailbox:1696-2191 vac.cdir:1408-1439 vac.cust:1440-1695 vac.head:64-255 vac.rec:256-1407";
    "vacation-l/cancel mailbox:1696-2191 vac.cdir:1408-1439 vac.cust:1440-1695 vac.head:64-255 vac.rec:256-1407";
    "vacation-l/update_customer mailbox:1696-2191 vac.cdir:1408-1439 vac.cust:1440-1695 vac.head:64-255 vac.rec:256-1407";
    "yada memory_words=128008";
    "yada/pop_work mailbox:536-1031 yada.count:144-151 yada.idx:64-79 yada.ring:80-143 yada.tri:152-128007";
    "yada/push_work mailbox:536-1031 yada.count:144-151 yada.idx:64-79 yada.ring:80-143 yada.tri:152-128007";
    "yada/refine mailbox:536-1031 yada.count:144-151 yada.idx:64-79 yada.ring:80-143 yada.tri:152-128007";
    "yada/split mailbox:536-1031 yada.count:144-151 yada.idx:64-79 yada.ring:80-143 yada.tri:152-128007";
    "yada/check_quality mailbox:536-1031 yada.count:144-151 yada.idx:64-79 yada.ring:80-143 yada.tri:152-128007";
    "yada/global_counter mailbox:536-1031 yada.count:144-151 yada.idx:64-79 yada.ring:80-143 yada.tri:152-128007";
  ]

let test_golden_layout () =
  let span (r, (lo, hi)) = Printf.sprintf "%s:%d-%d" r lo hi in
  let rows =
    List.concat_map
      (fun (w : Workload.t) ->
        Printf.sprintf "%s memory_words=%d" w.name w.memory_words
        :: List.map
             (fun (ar : P.ar) ->
               Printf.sprintf "%s/%s %s" w.name ar.P.name
                 (String.concat " " (List.map span ar.P.regions)))
             w.ars)
      Workloads.Registry.all
  in
  Alcotest.(check (list string)) "registry layout rows" golden_layout rows

(* Random allocation scripts against a reference that keeps every tagged
   span in a plain list and folds it on demand. *)
(* [None] allocates without a [?region]; [Some ""] passes the default
   tag explicitly. *)
type step =
  | Line of string option
  | Lines of string option * int
  | Words of string option * int
  | Note of string * int * int

let layout_tags = [| ""; "a"; "b"; "c" |]

let gen_script =
  let open QCheck.Gen in
  let tag = map (Array.get layout_tags) (int_bound (Array.length layout_tags - 1)) in
  let region = opt tag in
  let step =
    frequency
      [
        (2, map (fun t -> Line t) region);
        (2, map2 (fun t n -> Lines (t, n)) region (int_bound 4));
        (3, map2 (fun t n -> Words (t, n)) region (int_bound 11));
        (2, map3 (fun t lo len -> Note (t, lo, lo + len)) tag (int_bound 400) (int_range (-3) 40));
      ]
  in
  list_size (int_bound 40) step

let show_region = function None -> "-" | Some t -> Printf.sprintf "%S" t

let show_step = function
  | Line t -> Printf.sprintf "line %s" (show_region t)
  | Lines (t, n) -> Printf.sprintf "lines %s %d" (show_region t) n
  | Words (t, n) -> Printf.sprintf "words %s %d" (show_region t) n
  | Note (t, lo, hi) -> Printf.sprintf "note %S %d-%d" t lo hi

let reference_layout script =
  let wpl = Mem.Addr.words_per_line in
  let next, spans =
    List.fold_left
      (fun (next, spans) step ->
        let aligned = (next + wpl - 1) / wpl * wpl and tag = Option.value ~default:"" in
        match step with
        | Line t -> (aligned + wpl, (tag t, aligned, aligned + wpl - 1) :: spans)
        | Lines (t, n) -> (aligned + (n * wpl), (tag t, aligned, aligned + (n * wpl) - 1) :: spans)
        | Words (t, n) -> (next + n, (tag t, next, next + n - 1) :: spans)
        | Note (t, lo, hi) -> (next, (t, lo, hi) :: spans))
      (64, []) script
  in
  let kept = List.filter (fun (t, lo, hi) -> t <> "" && hi >= lo) spans in
  let tags = List.sort_uniq String.compare (List.map (fun (t, _, _) -> t) kept) in
  let extent t =
    List.fold_left
      (fun acc (t', lo, hi) ->
        if t' <> t then acc
        else
          match acc with
          | None -> Some (lo, hi)
          | Some (alo, ahi) -> Some (Int.min alo lo, Int.max ahi hi))
      None kept
  in
  (next, List.map (fun t -> (t, Option.get (extent t))) tags, extent)

let prop_layout_matches_reference =
  QCheck.Test.make ~name:"Layout extents match a folded span list" ~count:500
    (QCheck.make ~print:(fun s -> String.concat "; " (List.map show_step s)) gen_script)
    (fun script ->
      let module L = Workloads.Layout in
      let l = L.create () in
      List.iter
        (function
          | Line region -> ignore (L.alloc_line ?region l)
          | Lines (region, n) -> ignore (L.alloc_lines ?region l n)
          | Words (region, n) -> ignore (L.alloc_words ?region l n)
          | Note (t, lo, hi) -> L.note_span l ~region:t ~lo ~hi)
        script;
      let used, extents, extent = reference_layout script in
      L.used_words l = used
      && L.extents l = extents
      && Array.for_all (fun t -> L.extent l t = extent t) layout_tags)

let () =
  Alcotest.run "workloads"
    [
      ( "layout",
        [
          Alcotest.test_case "alignment" `Quick test_layout_alignment;
          Alcotest.test_case "golden registry layout" `Quick test_golden_layout;
          QCheck_alcotest.to_alcotest prop_layout_matches_reference;
        ] );
      ( "registry",
        [
          Alcotest.test_case "complete" `Quick test_registry_complete;
          Alcotest.test_case "unique names" `Quick test_registry_names_unique;
          Alcotest.test_case "unique AR ids" `Quick test_ar_ids_unique_per_workload;
          Alcotest.test_case "Table 1 AR counts" `Quick test_table1_ar_counts;
        ] );
      ( "drivers",
        [
          Alcotest.test_case "ops well-formed" `Quick test_driver_ops_well_formed;
          Alcotest.test_case "setup deterministic" `Quick test_setup_idempotent_under_seed;
        ] );
      ( "setup postconditions",
        [
          Alcotest.test_case "bst tree valid" `Quick test_bst_setup_valid_tree;
          Alcotest.test_case "sorted list sorted" `Quick test_sorted_list_setup_sorted;
          Alcotest.test_case "bitcoin balances" `Quick test_bitcoin_setup_balances;
          Alcotest.test_case "vacation chains" `Quick test_vacation_chains_intact;
          Alcotest.test_case "mailboxes distinct" `Quick test_mailboxes_distinct_lines;
        ] );
      ("shape", [ Alcotest.test_case "ARs store something" `Quick test_ar_bodies_have_stores_or_mailbox ]);
    ]
