module A = Isa.Asm
module P = Isa.Program
module W = Machine.Workload
open Common

(* Variable record (one line): [score; parent_count; list head].
   Parent-list node (one line): [var_id; var_ptr; next]. *)
let v_score = 0

let v_head = 2

let n_id = 0

let n_ptr = 1

let n_next = 2

(* Ring push/pop over task descriptors (one word per slot). *)
let build_ring_op ~id ~name ~push ~regions =
  P.build_ar ~id ~name ~regions (fun b ->
      (* r0 = &index, r1 = ring base, r3 = capacity, r2 = payload (push),
         r5 = mailbox (pop) *)
      A.ld b ~dst:8 ~base:(reg 0) ~region:"bay.idx" ();
      A.binop b Isa.Instr.Rem ~dst:9 (reg 8) (reg 3);
      A.add b ~dst:9 (reg 9) (reg 1);
      if push then A.st b ~base:(reg 9) ~src:(reg 2) ~region:"bay.ring" ()
      else begin
        A.ld b ~dst:10 ~base:(reg 9) ~region:"bay.ring" ();
        A.st b ~base:(reg 5) ~src:(reg 10) ~region:"mailbox" ()
      end;
      A.add b ~dst:8 (reg 8) (imm 1);
      A.st b ~base:(reg 0) ~src:(reg 8) ~region:"bay.idx" ();
      A.halt b)

(* Duplicate-checking insert into a parent list. *)
let build_add_parent ~id ~regions =
  P.build_ar ~id ~name:"add_parent" ~regions (fun b ->
      (* r0 = variable record, r1 = parent id, r2 = fresh node,
         r4 = parent record pointer *)
      let loop = A.new_label b in
      let link = A.new_label b in
      let done_ = A.new_label b in
      A.add b ~dst:8 (reg 0) (imm v_head) (* link address *);
      A.place b loop;
      A.ld b ~dst:9 ~base:(reg 8) ~region:"bay.node" ();
      A.brc b Isa.Instr.Eq (reg 9) (imm 0) link;
      A.ld b ~dst:10 ~base:(reg 9) ~off:n_id ~region:"bay.node" ();
      A.brc b Isa.Instr.Eq (reg 10) (reg 1) done_ (* already a parent *);
      A.add b ~dst:8 (reg 9) (imm n_next);
      A.jmp b loop;
      A.place b link;
      A.st b ~base:(reg 2) ~off:n_id ~src:(reg 1) ~region:"bay.node" ();
      A.st b ~base:(reg 2) ~off:n_ptr ~src:(reg 4) ~region:"bay.node" ();
      A.st b ~base:(reg 2) ~off:n_next ~src:(imm 0) ~region:"bay.node" ();
      A.st b ~base:(reg 8) ~src:(reg 2) ~region:"bay.node" ();
      A.place b done_;
      A.halt b)

let build_remove_parent ~id ~regions =
  P.build_ar ~id ~name:"remove_parent" ~regions (fun b ->
      (* r0 = variable record, r1 = parent id, r5 = mailbox *)
      let loop = A.new_label b in
      let unlink = A.new_label b in
      let missing = A.new_label b in
      let done_ = A.new_label b in
      A.add b ~dst:8 (reg 0) (imm v_head);
      A.place b loop;
      A.ld b ~dst:9 ~base:(reg 8) ~region:"bay.node" ();
      A.brc b Isa.Instr.Eq (reg 9) (imm 0) missing;
      A.ld b ~dst:10 ~base:(reg 9) ~off:n_id ~region:"bay.node" ();
      A.brc b Isa.Instr.Eq (reg 10) (reg 1) unlink;
      A.add b ~dst:8 (reg 9) (imm n_next);
      A.jmp b loop;
      A.place b unlink;
      A.ld b ~dst:11 ~base:(reg 9) ~off:n_next ~region:"bay.node" ();
      A.st b ~base:(reg 8) ~src:(reg 11) ~region:"bay.node" ();
      A.st b ~base:(reg 5) ~src:(imm 1) ~region:"mailbox" ();
      A.jmp b done_;
      A.place b missing;
      A.st b ~base:(reg 5) ~src:(imm 0) ~region:"mailbox" ();
      A.place b done_;
      A.halt b)

let build_has_parent ~id ~regions =
  P.build_ar ~id ~name:"has_parent" ~regions (fun b ->
      (* r0 = variable record, r1 = parent id, r5 = mailbox *)
      let loop = A.new_label b in
      let hit = A.new_label b in
      let miss = A.new_label b in
      let done_ = A.new_label b in
      A.ld b ~dst:8 ~base:(reg 0) ~off:v_head ~region:"bay.node" ();
      A.place b loop;
      A.brc b Isa.Instr.Eq (reg 8) (imm 0) miss;
      A.ld b ~dst:9 ~base:(reg 8) ~off:n_id ~region:"bay.node" ();
      A.brc b Isa.Instr.Eq (reg 9) (reg 1) hit;
      A.ld b ~dst:8 ~base:(reg 8) ~off:n_next ~region:"bay.node" ();
      A.jmp b loop;
      A.place b hit;
      A.st b ~base:(reg 5) ~src:(imm 1) ~region:"mailbox" ();
      A.jmp b done_;
      A.place b miss;
      A.st b ~base:(reg 5) ~src:(imm 0) ~region:"mailbox" ();
      A.place b done_;
      A.halt b)

let build_count_parents ~id ~regions =
  P.build_ar ~id ~name:"count_parents" ~regions (fun b ->
      (* r0 = variable record, r5 = mailbox *)
      let loop = A.new_label b in
      let done_ = A.new_label b in
      A.mov b ~dst:9 (imm 0);
      A.ld b ~dst:8 ~base:(reg 0) ~off:v_head ~region:"bay.node" ();
      A.place b loop;
      A.brc b Isa.Instr.Eq (reg 8) (imm 0) done_;
      A.add b ~dst:9 (reg 9) (imm 1);
      A.ld b ~dst:8 ~base:(reg 8) ~off:n_next ~region:"bay.node" ();
      A.jmp b loop;
      A.place b done_;
      A.st b ~base:(reg 5) ~src:(reg 9) ~region:"mailbox" ();
      A.halt b)

(* Move a parenthood edge: unlink [r1] from variable [r0], prepend the node
   to variable [r6]'s list. *)
let build_reverse_edge ~id ~regions =
  P.build_ar ~id ~name:"reverse_edge" ~regions (fun b ->
      let loop = A.new_label b in
      let unlink = A.new_label b in
      let done_ = A.new_label b in
      A.add b ~dst:8 (reg 0) (imm v_head);
      A.place b loop;
      A.ld b ~dst:9 ~base:(reg 8) ~region:"bay.node" ();
      A.brc b Isa.Instr.Eq (reg 9) (imm 0) done_;
      A.ld b ~dst:10 ~base:(reg 9) ~off:n_id ~region:"bay.node" ();
      A.brc b Isa.Instr.Eq (reg 10) (reg 1) unlink;
      A.add b ~dst:8 (reg 9) (imm n_next);
      A.jmp b loop;
      A.place b unlink;
      A.ld b ~dst:11 ~base:(reg 9) ~off:n_next ~region:"bay.node" ();
      A.st b ~base:(reg 8) ~src:(reg 11) ~region:"bay.node" ();
      A.ld b ~dst:12 ~base:(reg 6) ~off:v_head ~region:"bay.node" ();
      A.st b ~base:(reg 9) ~off:n_next ~src:(reg 12) ~region:"bay.node" ();
      A.st b ~base:(reg 6) ~off:v_head ~src:(reg 9) ~region:"bay.node" ();
      A.place b done_;
      A.halt b)

(* Sum the scores of every parent (dereferences each node's record
   pointer). *)
let build_sum_family ~id ~regions =
  P.build_ar ~id ~name:"sum_family_scores" ~regions (fun b ->
      (* r0 = variable record, r5 = mailbox *)
      let loop = A.new_label b in
      let done_ = A.new_label b in
      A.ld b ~dst:9 ~base:(reg 0) ~off:v_score ~region:"bay.var" ();
      A.ld b ~dst:8 ~base:(reg 0) ~off:v_head ~region:"bay.node" ();
      A.place b loop;
      A.brc b Isa.Instr.Eq (reg 8) (imm 0) done_;
      A.ld b ~dst:10 ~base:(reg 8) ~off:n_ptr ~region:"bay.node" ();
      A.ld b ~dst:11 ~base:(reg 10) ~off:v_score ~region:"bay.var" ();
      A.add b ~dst:9 (reg 9) (reg 11);
      A.ld b ~dst:8 ~base:(reg 8) ~off:n_next ~region:"bay.node" ();
      A.jmp b loop;
      A.place b done_;
      A.st b ~base:(reg 5) ~src:(reg 9) ~region:"mailbox" ();
      A.halt b)

(* Bump every parent's score (write version of sum_family). *)
let build_touch_family ~id ~regions =
  P.build_ar ~id ~name:"touch_family" ~regions (fun b ->
      (* r0 = variable record, r1 = delta *)
      let loop = A.new_label b in
      let done_ = A.new_label b in
      A.ld b ~dst:8 ~base:(reg 0) ~off:v_head ~region:"bay.node" ();
      A.place b loop;
      A.brc b Isa.Instr.Eq (reg 8) (imm 0) done_;
      A.ld b ~dst:10 ~base:(reg 8) ~off:n_ptr ~region:"bay.node" ();
      A.ld b ~dst:11 ~base:(reg 10) ~off:v_score ~region:"bay.var" ();
      A.add b ~dst:11 (reg 11) (reg 1);
      A.st b ~base:(reg 10) ~off:v_score ~src:(reg 11) ~region:"bay.var" ();
      A.ld b ~dst:8 ~base:(reg 8) ~off:n_next ~region:"bay.node" ();
      A.jmp b loop;
      A.place b done_;
      A.halt b)

let vars = 24
let ring_capacity = 48
let pool_per_thread = 256

let workload =
  let layout = Layout.create () in
  let ring_head = Layout.alloc_line ~region:"bay.idx" layout in
  let ring_tail = Layout.alloc_line ~region:"bay.idx" layout in
  let ring = Layout.alloc_lines ~region:"bay.ring" layout (ring_capacity / Mem.Addr.words_per_line) in
  let var_recs = Array.init vars (fun _ -> Layout.alloc_line ~region:"bay.var" layout) in
  let var_dir = Layout.alloc_words ~region:"bay.dir" layout vars in
  let progress_dir = Layout.alloc_words ~region:"bay.pdir" layout 1 in
  let progress_rec = Layout.alloc_line ~region:"bay.prog" layout in
  let mail = mailboxes layout ~threads:max_threads in
  let pools =
    Array.init max_threads (fun _ ->
        Array.init pool_per_thread (fun _ -> Layout.alloc_line ~region:"bay.node" layout))
  in
  (* Parent-list walks are tagged "bay.node" but traverse through the
     variable records' embedded list heads, so the node extent must take
     the record range in. *)
  Layout.note_span layout ~region:"bay.node" ~lo:var_recs.(0)
    ~hi:(var_recs.(vars - 1) + Mem.Addr.words_per_line - 1);
  let regions = Layout.extents layout in
  (* Likely-immutable ARs: record updates through read-only directories. *)
  let update_score =
    dir_update_ar ~id:0 ~name:"update_score" ~dir_region:"bay.dir" ~record_region:"bay.var"
      ~fields:[ (v_score, `Add_reg 1) ] ~regions ()
  in
  let inc_parent_count =
    dir_update_ar ~id:1 ~name:"inc_parent_count" ~dir_region:"bay.dir" ~record_region:"bay.var"
      ~fields:[ (1, `Add_reg 1) ] ~regions ()
  in
  let dec_parent_count =
    dir_update_ar ~id:2 ~name:"dec_parent_count" ~dir_region:"bay.dir" ~record_region:"bay.var"
      ~fields:[ (1, `Add_reg 1) ] ~regions ()
  in
  let log_progress =
    dir_update_ar ~id:3 ~name:"log_progress" ~dir_region:"bay.pdir" ~record_region:"bay.prog"
      ~fields:[ (0, `Add_reg 1); (1, `Set_reg 2) ] ~regions ()
  in
  let read_scores =
    dir_read_ar ~id:4 ~name:"read_scores" ~dir_region:"bay.dir" ~record_region:"bay.var"
      ~offsets:[ 0; 1 ] ~mailbox_reg:5 ~regions ()
  in
  (* Mutable ARs. *)
  let push_task = build_ring_op ~id:5 ~name:"push_task" ~push:true ~regions in
  let pop_task = build_ring_op ~id:6 ~name:"pop_task" ~push:false ~regions in
  let add_parent = build_add_parent ~id:7 ~regions in
  let remove_parent = build_remove_parent ~id:8 ~regions in
  let has_parent = build_has_parent ~id:9 ~regions in
  let count_parents = build_count_parents ~id:10 ~regions in
  let reverse_edge = build_reverse_edge ~id:11 ~regions in
  let sum_family = build_sum_family ~id:12 ~regions in
  let touch_family = build_touch_family ~id:13 ~regions in
  let setup store rng =
    Mem.Store.write store ring_head 0;
    Mem.Store.write store ring_tail 0;
    for i = 0 to ring_capacity - 1 do
      Mem.Store.write store (ring + i) (Simrt.Rng.int rng vars)
    done;
    Array.iteri
      (fun i r ->
        Mem.Store.write store (var_dir + i) r;
        Mem.Store.write store (r + v_score) (Simrt.Rng.int rng 50);
        Mem.Store.write store (r + 1) 0;
        Mem.Store.write store (r + v_head) 0)
      var_recs;
    Mem.Store.write store progress_dir progress_rec;
    Mem.Store.fill store progress_rec ~len:2 0
  in
  let make_driver ~tid ~threads:_ _store rng =
    let pool = pools.(tid) in
    let cursor = ref 0 in
    fun () ->
      let v = Simrt.Rng.int rng vars in
      let p = Simrt.Rng.int rng vars in
      let dice = Simrt.Rng.float rng 1.0 in
      if dice < 0.10 then W.op update_score [ (0, var_dir + v); (1, Simrt.Rng.int_in rng (-5) 5) ]
      else if dice < 0.17 then W.op inc_parent_count [ (0, var_dir + v); (1, 1) ]
      else if dice < 0.24 then W.op dec_parent_count [ (0, var_dir + v); (1, -1) ]
      else if dice < 0.30 then
        W.op log_progress [ (0, progress_dir); (1, 1); (2, Simrt.Rng.int rng 100) ]
      else if dice < 0.37 then W.op read_scores [ (0, var_dir + v); (5, mail.(tid)) ]
      else if dice < 0.45 then
        W.op push_task [ (0, ring_tail); (1, ring); (3, ring_capacity); (2, v) ]
      else if dice < 0.53 then
        W.op pop_task [ (0, ring_head); (1, ring); (3, ring_capacity); (5, mail.(tid)) ]
      else if dice < 0.63 && !cursor < Array.length pool then begin
        let node = pool.(!cursor) in
        incr cursor;
        W.op add_parent [ (0, var_recs.(v)); (1, p); (2, node); (4, var_recs.(p)) ]
      end
      else if dice < 0.70 then W.op remove_parent [ (0, var_recs.(v)); (1, p); (5, mail.(tid)) ]
      else if dice < 0.78 then W.op has_parent [ (0, var_recs.(v)); (1, p); (5, mail.(tid)) ]
      else if dice < 0.85 then W.op count_parents [ (0, var_recs.(v)); (5, mail.(tid)) ]
      else if dice < 0.90 then
        W.op reverse_edge [ (0, var_recs.(v)); (1, p); (6, var_recs.((v + 1) mod vars)) ]
      else if dice < 0.96 then W.op sum_family [ (0, var_recs.(v)); (5, mail.(tid)) ]
      else W.op touch_family [ (0, var_recs.(v)); (1, 1) ]
  in
  {
    W.name = "bayes";
    description = "structure learning: task ring, parent lists, score records";
    ars =
      [
        update_score;
        inc_parent_count;
        dec_parent_count;
        log_progress;
        read_scores;
        push_task;
        pop_task;
        add_parent;
        remove_parent;
        has_parent;
        count_parents;
        reverse_edge;
        sum_family;
        touch_family;
      ];
    memory_words = Layout.used_words layout;
    setup;
    make_driver;
  }
