module A = Isa.Asm
module P = Isa.Program
module W = Machine.Workload
open Common

let o_key = 0

let o_val = 1

let o_next = 2

let build_insert ~id ~regions =
  P.build_ar ~id ~regions ~name:"insert" (fun b ->
      (* r0 = &bucket head, r1 = key, r2 = value, r3 = fresh node.
         Updates in place when the key exists, else prepends. *)
      let loop = A.new_label b in
      let prepend = A.new_label b in
      let update = A.new_label b in
      let done_ = A.new_label b in
      A.mov b ~dst:8 (reg 0);
      A.place b loop;
      A.ld b ~dst:9 ~base:(reg 8) ~region:"hm.node" ();
      A.brc b Isa.Instr.Eq (reg 9) (imm 0) prepend;
      A.ld b ~dst:10 ~base:(reg 9) ~off:o_key ~region:"hm.node" ();
      A.brc b Isa.Instr.Eq (reg 10) (reg 1) update;
      A.add b ~dst:8 (reg 9) (imm o_next);
      A.jmp b loop;
      A.place b update;
      A.st b ~base:(reg 9) ~off:o_val ~src:(reg 2) ~region:"hm.node" ();
      A.jmp b done_;
      A.place b prepend;
      A.st b ~base:(reg 3) ~off:o_key ~src:(reg 1) ~region:"hm.node" ();
      A.st b ~base:(reg 3) ~off:o_val ~src:(reg 2) ~region:"hm.node" ();
      A.ld b ~dst:11 ~base:(reg 0) ~region:"hm.head" ();
      A.st b ~base:(reg 3) ~off:o_next ~src:(reg 11) ~region:"hm.node" ();
      A.st b ~base:(reg 0) ~src:(reg 3) ~region:"hm.head" ();
      A.place b done_;
      A.halt b)

let build_lookup ~id ~regions =
  P.build_ar ~id ~regions ~name:"lookup" (fun b ->
      (* r0 = &bucket head, r1 = key, r5 = mailbox *)
      let loop = A.new_label b in
      let found = A.new_label b in
      let missing = A.new_label b in
      let done_ = A.new_label b in
      A.ld b ~dst:8 ~base:(reg 0) ~region:"hm.head" ();
      A.place b loop;
      A.brc b Isa.Instr.Eq (reg 8) (imm 0) missing;
      A.ld b ~dst:9 ~base:(reg 8) ~off:o_key ~region:"hm.node" ();
      A.brc b Isa.Instr.Eq (reg 9) (reg 1) found;
      A.ld b ~dst:8 ~base:(reg 8) ~off:o_next ~region:"hm.node" ();
      A.jmp b loop;
      A.place b found;
      A.ld b ~dst:10 ~base:(reg 8) ~off:o_val ~region:"hm.node" ();
      A.st b ~base:(reg 5) ~src:(reg 10) ~region:"mailbox" ();
      A.jmp b done_;
      A.place b missing;
      A.st b ~base:(reg 5) ~src:(imm (-1)) ~region:"mailbox" ();
      A.place b done_;
      A.halt b)

let build_remove ~id ~regions =
  P.build_ar ~id ~regions ~name:"remove" (fun b ->
      (* r0 = &bucket head, r1 = key, r5 = mailbox.
         r8 = address of the link under inspection, r9 = node. *)
      let loop = A.new_label b in
      let unlink = A.new_label b in
      let missing = A.new_label b in
      let done_ = A.new_label b in
      A.mov b ~dst:8 (reg 0);
      A.place b loop;
      A.ld b ~dst:9 ~base:(reg 8) ~region:"hm.node" ();
      A.brc b Isa.Instr.Eq (reg 9) (imm 0) missing;
      A.ld b ~dst:10 ~base:(reg 9) ~off:o_key ~region:"hm.node" ();
      A.brc b Isa.Instr.Eq (reg 10) (reg 1) unlink;
      A.add b ~dst:8 (reg 9) (imm o_next);
      A.jmp b loop;
      A.place b unlink;
      A.ld b ~dst:11 ~base:(reg 9) ~off:o_next ~region:"hm.node" ();
      A.st b ~base:(reg 8) ~src:(reg 11) ~region:"hm.node" ();
      A.st b ~base:(reg 5) ~src:(imm 1) ~region:"mailbox" ();
      A.jmp b done_;
      A.place b missing;
      A.st b ~base:(reg 5) ~src:(imm 0) ~region:"mailbox" ();
      A.place b done_;
      A.halt b)

let buckets = 8
let key_range = 160
let pool_per_thread = 512

let workload =
  let layout = Layout.create () in
  let heads = Array.init buckets (fun _ -> Layout.alloc_line ~region:"hm.head" layout) in
  let mail = mailboxes layout ~threads:max_threads in
  let pools =
    Array.init max_threads (fun _ ->
        Array.init pool_per_thread (fun _ -> Layout.alloc_line ~region:"hm.node" layout))
  in
  (* The chain-walk sites are tagged "hm.node" but their first iteration
     dereferences (and remove's unlink may write) the bucket-head link
     itself, so the node region's extent must also cover the head lines. *)
  Layout.note_span layout ~region:"hm.node" ~lo:heads.(0)
    ~hi:(heads.(buckets - 1) + Mem.Addr.words_per_line - 1);
  let regions = Layout.extents layout in
  let insert = build_insert ~id:0 ~regions in
  let lookup = build_lookup ~id:1 ~regions in
  let remove = build_remove ~id:2 ~regions in
  let bucket_of key = heads.(key mod buckets) in
  let setup store _rng = Array.iter (fun h -> Mem.Store.write store h 0) heads in
  let make_driver ~tid ~threads:_ _store rng =
    let pool = pools.(tid) in
    let cursor = ref 0 in
    fun () ->
      let key = Simrt.Rng.int rng key_range in
      let dice = Simrt.Rng.float rng 1.0 in
      if dice < 0.4 && !cursor < Array.length pool then begin
        let node = pool.(!cursor) in
        incr cursor;
        W.op ~lock_id:(key mod buckets) insert
          [ (0, bucket_of key); (1, key); (2, Simrt.Rng.int rng 1000); (3, node) ]
      end
      else if dice < 0.75 then
        W.op ~lock_id:(key mod buckets) lookup [ (0, bucket_of key); (1, key); (5, mail.(tid)) ]
      else W.op ~lock_id:(key mod buckets) remove [ (0, bucket_of key); (1, key); (5, mail.(tid)) ]
  in
  {
    W.name = "hashmap";
    description = "chained hash map: insert / lookup / remove";
    ars = [ insert; lookup; remove ];
    memory_words = Layout.used_words layout;
    setup;
    make_driver;
  }
