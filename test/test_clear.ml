(* Tests for the CLEAR hardware structures and the static mutability
   analysis. *)

module Ert = Clear.Ert
module Alt = Clear.Alt
module Crt = Clear.Crt
module Decision = Clear.Decision
module Indirection = Clear.Indirection
module Analysis = Clear.Analysis
module A = Isa.Asm
module I = Isa.Instr
module P = Isa.Program

(* ------------------------------------------------------------------ *)
(* ERT *)

let test_ert_defaults () =
  let t = Ert.create ~entries:4 () in
  let e = Ert.lookup_or_insert t ~pc:10 in
  Alcotest.(check bool) "convertible" true e.Ert.is_convertible;
  Alcotest.(check bool) "immutable" true e.Ert.is_immutable;
  Alcotest.(check int) "counter zero" 0 e.Ert.sq_full;
  Alcotest.(check bool) "discovery enabled" true (Ert.discovery_enabled e);
  Alcotest.(check int) "occupancy" 1 (Ert.occupancy t)

let test_ert_lookup_miss () =
  let t = Ert.create () in
  Alcotest.(check bool) "miss" true (Ert.lookup t ~pc:1 = None)

let test_ert_lru_eviction () =
  let t = Ert.create ~entries:2 () in
  let _ = Ert.lookup_or_insert t ~pc:1 in
  let _ = Ert.lookup_or_insert t ~pc:2 in
  (* refresh pc 1 so pc 2 is LRU *)
  let _ = Ert.lookup t ~pc:1 in
  let _ = Ert.lookup_or_insert t ~pc:3 in
  Alcotest.(check bool) "pc1 kept" true (Ert.lookup t ~pc:1 <> None);
  Alcotest.(check bool) "pc2 evicted" true (Ert.lookup t ~pc:2 = None)

let test_ert_flags_persist () =
  let t = Ert.create () in
  let e = Ert.lookup_or_insert t ~pc:5 in
  Ert.mark_not_convertible e;
  Ert.mark_not_immutable e;
  let e' = Ert.lookup_or_insert t ~pc:5 in
  Alcotest.(check bool) "same entry" true (e == e');
  Alcotest.(check bool) "not convertible" false e'.Ert.is_convertible;
  Alcotest.(check bool) "discovery disabled" false (Ert.discovery_enabled e')

let test_ert_sq_counter () =
  let t = Ert.create () in
  let e = Ert.lookup_or_insert t ~pc:5 in
  Ert.note_sq_full t ~pc:5;
  Ert.note_sq_full t ~pc:5;
  Alcotest.(check bool) "still enabled below saturation" true (Ert.discovery_enabled e);
  Ert.note_sq_full t ~pc:5;
  Ert.note_sq_full t ~pc:5 (* saturates at 3 *);
  Alcotest.(check int) "saturated" 3 e.Ert.sq_full;
  Alcotest.(check bool) "disabled at saturation" false (Ert.discovery_enabled e);
  Ert.note_commit t ~pc:5;
  Alcotest.(check int) "commit decrements" 2 e.Ert.sq_full;
  Alcotest.(check bool) "re-enabled" true (Ert.discovery_enabled e)

(* ------------------------------------------------------------------ *)
(* ALT *)

let make_alt ?(capacity = 8) () = Alt.create ~capacity ~dir_set_of:(fun line -> line mod 4) ()

let test_alt_record_and_order () =
  let t = make_alt () in
  List.iter (fun l -> ignore (Alt.record t l ~written:false)) [ 10; 5; 7 ];
  (* dir sets: 10->2, 5->1, 7->3 — lock order sorts by (dir_set, line) *)
  Alcotest.(check (list int)) "lock order" [ 5; 10; 7 ] (Alt.lines t);
  Alcotest.(check int) "size" 3 (Alt.size t)

let test_alt_merge_written () =
  let t = make_alt () in
  ignore (Alt.record t 5 ~written:false);
  ignore (Alt.record t 5 ~written:true);
  Alcotest.(check int) "no duplicate" 1 (Alt.size t);
  Alcotest.(check (list int)) "written merged" [ 5 ] (Alt.written_lines t)

let test_alt_overflow () =
  let t = make_alt ~capacity:2 () in
  Alcotest.(check bool) "first ok" true (Alt.record t 1 ~written:false = `Ok);
  Alcotest.(check bool) "second ok" true (Alt.record t 2 ~written:false = `Ok);
  Alcotest.(check bool) "third overflows" true (Alt.record t 3 ~written:false = `Overflow);
  Alcotest.(check bool) "re-record existing ok" true (Alt.record t 1 ~written:true = `Ok);
  Alcotest.(check int) "contents preserved" 2 (Alt.size t)

let test_alt_prepare_locking_modes () =
  let t = make_alt () in
  ignore (Alt.record t 1 ~written:false);
  ignore (Alt.record t 2 ~written:true);
  ignore (Alt.record t 3 ~written:false);
  Alt.prepare_locking t ~lock_all:true ~extra:(fun _ -> false);
  Alcotest.(check int) "NS-CL locks everything" 3 (List.length (Alt.to_lock t));
  Alt.prepare_locking t ~lock_all:false ~extra:(fun _ -> false);
  Alcotest.(check (list int)) "S-CL locks writes" [ 2 ]
    (List.map (fun e -> e.Alt.line) (Alt.to_lock t));
  Alt.prepare_locking t ~lock_all:false ~extra:(fun l -> l = 3);
  Alcotest.(check (list int)) "CRT adds reads" [ 2; 3 ]
    (List.map (fun e -> e.Alt.line) (Alt.to_lock t))

let test_alt_groups () =
  let t = make_alt () in
  (* 1, 5, 9 share dir set 1; 2 is alone in set 2 *)
  List.iter (fun l -> ignore (Alt.record t l ~written:true)) [ 1; 5; 9; 2 ];
  Alt.prepare_locking t ~lock_all:true ~extra:(fun _ -> false);
  let groups = Alt.lock_groups t in
  Alcotest.(check (list (list int)))
    "groups by dir set"
    [ [ 1; 5; 9 ]; [ 2 ] ]
    (List.map (List.map (fun e -> e.Alt.line)) groups);
  let conflict_bits = List.map (fun e -> e.Alt.conflict) (Alt.entries t) in
  (* all but the last of each group carry the conflict bit *)
  Alcotest.(check (list bool)) "conflict bits" [ true; true; false; false ] conflict_bits

let test_alt_all_locked () =
  let t = make_alt () in
  ignore (Alt.record t 1 ~written:true);
  ignore (Alt.record t 2 ~written:true);
  Alt.prepare_locking t ~lock_all:true ~extra:(fun _ -> false);
  Alcotest.(check bool) "not yet" false (Alt.all_locked t);
  List.iter Alt.mark_locked (Alt.to_lock t);
  Alcotest.(check bool) "done" true (Alt.all_locked t)

let test_alt_reset () =
  let t = make_alt () in
  ignore (Alt.record t 1 ~written:true);
  Alt.reset t;
  Alcotest.(check int) "empty" 0 (Alt.size t)

let prop_alt_lock_all_covers_everything =
  QCheck.Test.make ~name:"prepare ~lock_all marks every entry" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 20) (int_range 0 1000))
    (fun lines ->
      let t = Alt.create ~capacity:64 ~dir_set_of:(fun l -> l mod 16) () in
      List.iter (fun l -> ignore (Alt.record t l ~written:false)) lines;
      Alt.prepare_locking t ~lock_all:true ~extra:(fun _ -> false);
      List.length (Alt.to_lock t) = Alt.size t)

let prop_alt_to_lock_subset =
  QCheck.Test.make ~name:"to_lock is a subset of entries" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 20) (pair (int_range 0 1000) bool))
    (fun accesses ->
      let t = Alt.create ~capacity:64 ~dir_set_of:(fun l -> l mod 16) () in
      List.iter (fun (l, w) -> ignore (Alt.record t l ~written:w)) accesses;
      Alt.prepare_locking t ~lock_all:false ~extra:(fun _ -> false);
      let lines = Alt.lines t in
      List.for_all (fun e -> List.mem e.Alt.line lines) (Alt.to_lock t))

let prop_ert_occupancy =
  QCheck.Test.make ~name:"ERT occupancy = min(distinct pcs, capacity)" ~count:200
    QCheck.(pair (int_range 1 8) (list_of_size Gen.(int_range 0 30) (int_range 0 100)))
    (fun (entries, pcs) ->
      let t = Ert.create ~entries () in
      List.iter (fun pc -> ignore (Ert.lookup_or_insert t ~pc)) pcs;
      let distinct = List.length (List.sort_uniq compare pcs) in
      Ert.occupancy t = min distinct entries)

let prop_alt_sorted_by_dir_set =
  QCheck.Test.make ~name:"ALT lines sorted by lexicographic key" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 20) (int_range 0 1000))
    (fun lines ->
      let t = Alt.create ~capacity:64 ~dir_set_of:(fun l -> l mod 16) () in
      List.iter (fun l -> ignore (Alt.record t l ~written:false)) lines;
      let keys = List.map (fun l -> (l mod 16, l)) (Alt.lines t) in
      keys = List.sort compare keys)

(* ------------------------------------------------------------------ *)
(* CRT *)

let test_crt_insert_mem () =
  let t = Crt.create ~entries:16 ~ways:2 () in
  Crt.insert t 42;
  Alcotest.(check bool) "present" true (Crt.mem t 42);
  Alcotest.(check bool) "absent" false (Crt.mem t 43);
  Crt.insert t 42;
  Alcotest.(check int) "idempotent" 1 (Crt.size t)

let test_crt_way_eviction () =
  let t = Crt.create ~entries:4 ~ways:2 () in
  (* set count = 2; lines 0,2,4 all map to set 0 *)
  Crt.insert t 0;
  Crt.insert t 2;
  Crt.insert t 0 (* refresh 0; 2 becomes LRU *);
  Crt.insert t 4;
  Alcotest.(check bool) "0 kept" true (Crt.mem t 0);
  Alcotest.(check bool) "2 evicted" false (Crt.mem t 2);
  Alcotest.(check bool) "4 present" true (Crt.mem t 4)

let test_crt_clear () =
  let t = Crt.create () in
  Crt.insert t 1;
  Crt.clear t;
  Alcotest.(check int) "cleared" 0 (Crt.size t)

let test_crt_remove () =
  let t = Crt.create () in
  Crt.insert t 5;
  Crt.insert t 6;
  Crt.remove t 5;
  Alcotest.(check bool) "removed" false (Crt.mem t 5);
  Alcotest.(check bool) "other kept" true (Crt.mem t 6);
  Crt.remove t 99 (* absent: no-op *);
  Alcotest.(check int) "size" 1 (Crt.size t)

let test_crt_geometry () =
  Alcotest.check_raises "bad geometry"
    (Invalid_argument "Crt.create: entries must be a positive multiple of ways") (fun () ->
      ignore (Crt.create ~entries:10 ~ways:4 ()))

(* ------------------------------------------------------------------ *)
(* Decision *)

let test_decision_tree () =
  let d fits lockable immutable =
    Decision.decide { Decision.fits_window = fits; lockable; immutable }
  in
  Alcotest.(check string) "overflow -> retry" "speculative"
    (Decision.mode_name (d false true true));
  Alcotest.(check string) "unlockable -> retry" "speculative"
    (Decision.mode_name (d true false true));
  Alcotest.(check string) "immutable -> NS-CL" "NS-CL" (Decision.mode_name (d true true true));
  Alcotest.(check string) "mutable -> S-CL" "S-CL" (Decision.mode_name (d true true false))

(* ------------------------------------------------------------------ *)
(* Indirection bits *)

let test_indirection_propagation () =
  let t = Indirection.create ~regs:8 in
  Indirection.define_load t ~dst:1;
  Alcotest.(check bool) "load sets" true (Indirection.get t 1);
  Indirection.define t ~dst:2 ~srcs:[ 1; 3 ];
  Alcotest.(check bool) "propagates" true (Indirection.get t 2);
  Indirection.define t ~dst:1 ~srcs:[ 3 ];
  Alcotest.(check bool) "overwrite clears" false (Indirection.get t 1);
  Alcotest.(check bool) "any_set" true (Indirection.any_set t [ 0; 2 ]);
  Alcotest.(check int) "count" 1 (Indirection.count_set t);
  Indirection.reset t;
  Alcotest.(check int) "reset" 0 (Indirection.count_set t)

(* ------------------------------------------------------------------ *)
(* Static analysis *)

let build name f = P.build_ar ~id:0 ~name f

let test_analysis_immutable () =
  let ar =
    build "imm" (fun b ->
        A.ld b ~dst:8 ~base:(I.Reg 0) ~region:"a" ();
        A.add b ~dst:8 (I.Reg 8) (I.Imm 1);
        A.st b ~base:(I.Reg 0) ~src:(I.Reg 8) ~region:"a" ();
        A.halt b)
  in
  Alcotest.(check (list string)) "no indirections" [] (Analysis.indirections ar.P.body);
  Alcotest.(check string) "immutable" "immutable"
    (Analysis.classification_name (Analysis.classify ~ar ~written_regions:[ "a" ]))

let test_analysis_likely_immutable () =
  (* address comes through a load from "dir", which no AR writes *)
  let ar =
    build "likely" (fun b ->
        A.ld b ~dst:8 ~base:(I.Reg 0) ~region:"dir" ();
        A.ld b ~dst:9 ~base:(I.Reg 8) ~region:"rec" ();
        A.st b ~base:(I.Reg 8) ~src:(I.Reg 9) ~region:"rec" ();
        A.halt b)
  in
  Alcotest.(check (list string)) "dir feeds addresses" [ "dir" ] (Analysis.indirections ar.P.body);
  Alcotest.(check string) "likely" "likely immutable"
    (Analysis.classification_name (Analysis.classify ~ar ~written_regions:[ "rec" ]));
  Alcotest.(check string) "mutable when dir written" "mutable"
    (Analysis.classification_name (Analysis.classify ~ar ~written_regions:[ "dir" ]))

let test_analysis_branch_dependency () =
  (* a branch on a loaded value is an indirection even without address use *)
  let ar =
    build "br" (fun b ->
        let skip = A.new_label b in
        A.ld b ~dst:8 ~base:(I.Reg 0) ~region:"flag" ();
        A.brc b I.Eq (I.Reg 8) (I.Imm 0) skip;
        A.st b ~base:(I.Reg 1) ~src:(I.Imm 1) ~region:"out" ();
        A.place b skip;
        A.halt b)
  in
  Alcotest.(check (list string)) "branch taint" [ "flag" ] (Analysis.indirections ar.P.body)

let test_analysis_taint_through_alu () =
  let ar =
    build "alu" (fun b ->
        A.ld b ~dst:8 ~base:(I.Reg 0) ~region:"idx" ();
        A.mul b ~dst:9 (I.Reg 8) (I.Imm 8);
        A.add b ~dst:9 (I.Reg 9) (I.Reg 1);
        A.ld b ~dst:10 ~base:(I.Reg 9) ~region:"slot" ();
        A.st b ~base:(I.Reg 2) ~src:(I.Reg 10) ~region:"out" ();
        A.halt b)
  in
  Alcotest.(check (list string))
    "taint flows through ALU" [ "idx" ] (Analysis.indirections ar.P.body)

let test_analysis_loop_fixpoint () =
  (* list traversal: the loop-carried register becomes tainted on the second
     iteration — requires the dataflow to iterate to fixpoint *)
  let ar =
    build "loop" (fun b ->
        let loop = A.new_label b in
        let done_ = A.new_label b in
        A.mov b ~dst:8 (I.Reg 0);
        A.place b loop;
        A.brc b I.Eq (I.Reg 8) (I.Imm 0) done_;
        A.ld b ~dst:8 ~base:(I.Reg 8) ~region:"link" ();
        A.jmp b loop;
        A.place b done_;
        A.halt b)
  in
  Alcotest.(check (list string))
    "loop-carried taint found" [ "link" ] (Analysis.indirections ar.P.body)

let test_analysis_data_only_load () =
  (* a loaded value used only as store data is not an indirection *)
  let ar =
    build "data" (fun b ->
        A.ld b ~dst:8 ~base:(I.Reg 0) ~region:"src" ();
        A.st b ~base:(I.Reg 1) ~src:(I.Reg 8) ~region:"dst" ();
        A.halt b)
  in
  Alcotest.(check (list string)) "no indirection" [] (Analysis.indirections ar.P.body)

let test_analysis_workload_counts () =
  (* expected (immutable, likely, mutable) per benchmark *)
  let expected =
    [
      ("arrayswap", (2, 0, 0));
      ("bitcoin", (0, 1, 0));
      ("bst", (0, 0, 3));
      ("deque", (0, 0, 2));
      ("hashmap", (0, 0, 3));
      ("mwobject", (1, 0, 0));
      ("queue", (0, 0, 2));
      ("stack", (1, 0, 1));
      ("sorted-list", (1, 0, 2));
      ("bayes", (0, 5, 9));
      ("genome", (0, 0, 5));
      ("intruder", (0, 2, 1));
      ("kmeans-h", (1, 2, 0));
      ("kmeans-l", (1, 2, 0));
      ("labyrinth", (0, 0, 3));
      ("ssca2", (2, 1, 0));
      ("vacation-h", (0, 1, 2));
      ("vacation-l", (0, 1, 2));
      ("yada", (1, 0, 5));
    ]
  in
  List.iter
    (fun (name, (im, li, mu)) ->
      let w = Workloads.Registry.find name in
      let got = Analysis.count (Analysis.classify_workload w.Machine.Workload.ars) in
      Alcotest.(check (triple int int int)) name (im, li, mu) got)
    expected

let test_analysis_untagged_indirection () =
  (* an untagged load feeding an address reports as <anon>; an untagged
     store elsewhere in the workload then makes the AR mutable *)
  let ar =
    build "anon" (fun b ->
        A.ld b ~dst:8 ~base:(I.Reg 0) ();
        A.ld b ~dst:9 ~base:(I.Reg 8) ~region:"rec" ();
        A.st b ~base:(I.Reg 1) ~src:(I.Reg 9) ~region:"rec" ();
        A.halt b)
  in
  Alcotest.(check (list string)) "anon indirection" [ Analysis.anon_region ]
    (Analysis.indirections ar.P.body);
  Alcotest.(check string) "likely when anon never written" "likely immutable"
    (Analysis.classification_name (Analysis.classify ~ar ~written_regions:[ "rec" ]));
  Alcotest.(check string) "mutable when some AR stores untagged" "mutable"
    (Analysis.classification_name
       (Analysis.classify ~ar ~written_regions:[ "rec"; Analysis.anon_region ]))

let test_analysis_taint_every_binop () =
  (* taint must propagate through all twelve ALU operations, via either
     operand position *)
  List.iter
    (fun op ->
      List.iter
        (fun tainted_first ->
          let ar =
            build "binop" (fun b ->
                A.ld b ~dst:8 ~base:(I.Reg 0) ~region:"src" ();
                (if tainted_first then A.binop b op ~dst:9 (I.Reg 8) (I.Imm 3)
                 else A.binop b op ~dst:9 (I.Imm 3) (I.Reg 8));
                A.ld b ~dst:10 ~base:(I.Reg 9) ~region:"tgt" ();
                A.st b ~base:(I.Reg 1) ~src:(I.Reg 10) ~region:"out" ();
                A.halt b)
          in
          Alcotest.(check (list string)) "binop propagates taint" [ "src" ]
            (Analysis.indirections ar.P.body))
        [ true; false ])
    [ I.Add; I.Sub; I.Mul; I.Div; I.Rem; I.And; I.Or; I.Xor; I.Shl; I.Shr; I.Min; I.Max ]

let test_analysis_mov_imm_clears_taint () =
  (* overwriting a tainted register with an immediate kills the taint, so
     the later address use is not an indirection *)
  let ar =
    build "movclear" (fun b ->
        A.ld b ~dst:8 ~base:(I.Reg 0) ~region:"src" ();
        A.mov b ~dst:8 (I.Imm 64);
        A.ld b ~dst:9 ~base:(I.Reg 8) ~region:"tgt" ();
        A.st b ~base:(I.Reg 1) ~src:(I.Reg 9) ~region:"out" ();
        A.halt b)
  in
  Alcotest.(check (list string)) "taint cleared" [] (Analysis.indirections ar.P.body)

let test_analysis_cross_ar_mutability () =
  (* the reader indirects through "dir" but never writes it; the writer AR
     does, so classify_workload demotes the reader to mutable *)
  let reader =
    build "reader" (fun b ->
        A.ld b ~dst:8 ~base:(I.Reg 0) ~region:"dir" ();
        A.ld b ~dst:9 ~base:(I.Reg 8) ~region:"rec" ();
        A.st b ~base:(I.Reg 8) ~src:(I.Reg 9) ~region:"rec" ();
        A.halt b)
  in
  let writer =
    P.build_ar ~id:1 ~name:"writer" (fun b ->
        A.st b ~base:(I.Reg 0) ~src:(I.Imm 7) ~region:"dir" ();
        A.halt b)
  in
  let reader_class ars =
    match List.assq_opt reader (Analysis.classify_workload ars) with
    | Some c -> Analysis.classification_name c
    | None -> Alcotest.fail "reader missing from classification"
  in
  Alcotest.(check string) "alone: likely immutable" "likely immutable" (reader_class [ reader ]);
  Alcotest.(check string) "with writer: mutable" "mutable" (reader_class [ reader; writer ])

(* ------------------------------------------------------------------ *)
(* Storage accounting *)

let test_storage_paper_numbers () =
  let b = Clear.Storage.paper in
  Alcotest.(check (float 0.01)) "indirection" 22.5 b.Clear.Storage.indirection_bytes;
  Alcotest.(check (float 0.01)) "ERT" 146.0 b.Clear.Storage.ert_bytes;
  Alcotest.(check (float 0.01)) "ALT" 276.0 b.Clear.Storage.alt_bytes;
  Alcotest.(check (float 0.01)) "CRT" 544.0 b.Clear.Storage.crt_bytes;
  Alcotest.(check (float 0.01)) "total < 1KiB" 988.5 b.Clear.Storage.total_bytes

let test_storage_scales () =
  let b = Clear.Storage.compute ~ert_entries:32 () in
  Alcotest.(check (float 0.01)) "double ERT" 292.0 b.Clear.Storage.ert_bytes;
  Alcotest.(check bool) "total grows" true
    (b.Clear.Storage.total_bytes > Clear.Storage.paper.Clear.Storage.total_bytes)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "clear"
    [
      ( "ert",
        [
          Alcotest.test_case "defaults" `Quick test_ert_defaults;
          Alcotest.test_case "lookup miss" `Quick test_ert_lookup_miss;
          Alcotest.test_case "LRU eviction" `Quick test_ert_lru_eviction;
          Alcotest.test_case "flags persist" `Quick test_ert_flags_persist;
          Alcotest.test_case "SQ-full counter" `Quick test_ert_sq_counter;
        ]
        @ qsuite [ prop_ert_occupancy ] );
      ( "alt",
        [
          Alcotest.test_case "record/order" `Quick test_alt_record_and_order;
          Alcotest.test_case "merge written" `Quick test_alt_merge_written;
          Alcotest.test_case "overflow" `Quick test_alt_overflow;
          Alcotest.test_case "prepare modes" `Quick test_alt_prepare_locking_modes;
          Alcotest.test_case "lock groups" `Quick test_alt_groups;
          Alcotest.test_case "all_locked" `Quick test_alt_all_locked;
          Alcotest.test_case "reset" `Quick test_alt_reset;
        ]
        @ qsuite
            [ prop_alt_sorted_by_dir_set; prop_alt_lock_all_covers_everything; prop_alt_to_lock_subset ]
      );
      ( "crt",
        [
          Alcotest.test_case "insert/mem" `Quick test_crt_insert_mem;
          Alcotest.test_case "way eviction" `Quick test_crt_way_eviction;
          Alcotest.test_case "clear" `Quick test_crt_clear;
          Alcotest.test_case "remove" `Quick test_crt_remove;
          Alcotest.test_case "geometry" `Quick test_crt_geometry;
        ] );
      ("decision", [ Alcotest.test_case "tree" `Quick test_decision_tree ]);
      ("indirection", [ Alcotest.test_case "propagation" `Quick test_indirection_propagation ]);
      ( "analysis",
        [
          Alcotest.test_case "immutable" `Quick test_analysis_immutable;
          Alcotest.test_case "likely immutable" `Quick test_analysis_likely_immutable;
          Alcotest.test_case "branch dependency" `Quick test_analysis_branch_dependency;
          Alcotest.test_case "taint through ALU" `Quick test_analysis_taint_through_alu;
          Alcotest.test_case "loop fixpoint" `Quick test_analysis_loop_fixpoint;
          Alcotest.test_case "data-only load" `Quick test_analysis_data_only_load;
          Alcotest.test_case "workload table 1" `Quick test_analysis_workload_counts;
          Alcotest.test_case "untagged indirection" `Quick test_analysis_untagged_indirection;
          Alcotest.test_case "taint through every binop" `Quick test_analysis_taint_every_binop;
          Alcotest.test_case "Mov Imm clears taint" `Quick test_analysis_mov_imm_clears_taint;
          Alcotest.test_case "mutable via another AR's writes" `Quick
            test_analysis_cross_ar_mutability;
        ] );
      ( "storage",
        [
          Alcotest.test_case "paper numbers" `Quick test_storage_paper_numbers;
          Alcotest.test_case "scales with entries" `Quick test_storage_scales;
        ] );
    ]
