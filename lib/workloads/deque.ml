module A = Isa.Asm
module P = Isa.Program
module W = Machine.Workload
open Common

let build_push_back ~id ~regions =
  P.build_ar ~id ~name:"push_back" ~regions (fun b ->
      (* r0 = &tail, r1 = slots base, r2 = value, r3 = capacity *)
      A.ld b ~dst:8 ~base:(reg 0) ~region:"dq.idx" ();
      A.binop b Isa.Instr.Rem ~dst:9 (reg 8) (reg 3);
      A.mul b ~dst:10 (reg 9) (imm Mem.Addr.words_per_line);
      A.add b ~dst:10 (reg 10) (reg 1);
      A.st b ~base:(reg 10) ~src:(reg 2) ~region:"dq.slot" ();
      A.add b ~dst:8 (reg 8) (imm 1);
      A.st b ~base:(reg 0) ~src:(reg 8) ~region:"dq.idx" ();
      A.halt b)

let build_pop_front ~id ~regions =
  P.build_ar ~id ~name:"pop_front" ~regions (fun b ->
      (* r0 = &head, r4 = &tail, r1 = slots base, r3 = capacity, r5 = mailbox *)
      let empty = A.new_label b in
      let done_ = A.new_label b in
      A.ld b ~dst:8 ~base:(reg 0) ~region:"dq.idx" ();
      A.ld b ~dst:9 ~base:(reg 4) ~region:"dq.idx" ();
      A.brc b Isa.Instr.Eq (reg 8) (reg 9) empty;
      A.binop b Isa.Instr.Rem ~dst:10 (reg 8) (reg 3);
      A.mul b ~dst:11 (reg 10) (imm Mem.Addr.words_per_line);
      A.add b ~dst:11 (reg 11) (reg 1);
      A.ld b ~dst:12 ~base:(reg 11) ~region:"dq.slot" ();
      A.st b ~base:(reg 5) ~src:(reg 12) ~region:"mailbox" ();
      A.add b ~dst:8 (reg 8) (imm 1);
      A.st b ~base:(reg 0) ~src:(reg 8) ~region:"dq.idx" ();
      A.jmp b done_;
      A.place b empty;
      A.st b ~base:(reg 5) ~src:(imm (-1)) ~region:"mailbox" ();
      A.place b done_;
      A.halt b)

let capacity = 64

let workload =
  let layout = Layout.create () in
  let head = Layout.alloc_line ~region:"dq.idx" layout in
  let tail = Layout.alloc_line ~region:"dq.idx" layout in
  let slots = Layout.alloc_lines ~region:"dq.slot" layout capacity in
  let mail = mailboxes layout ~threads:max_threads in
  let regions = Layout.extents layout in
  let push_back = build_push_back ~id:0 ~regions in
  let pop_front = build_pop_front ~id:1 ~regions in
  let setup store rng =
    (* Pre-fill half the deque so pops succeed from the start. *)
    let prefill = capacity / 2 in
    Mem.Store.write store head 0;
    Mem.Store.write store tail prefill;
    for i = 0 to prefill - 1 do
      Mem.Store.write store (slots + (i * Mem.Addr.words_per_line)) (Simrt.Rng.int rng 1000)
    done
  in
  let make_driver ~tid ~threads:_ _store rng () =
    if Simrt.Rng.bool rng then
      W.op push_back [ (0, tail); (1, slots); (2, Simrt.Rng.int rng 1000); (3, capacity) ]
    else W.op pop_front [ (0, head); (4, tail); (1, slots); (3, capacity); (5, mail.(tid)) ]
  in
  {
    W.name = "deque";
    description = "bounded circular deque: push-back / pop-front";
    ars = [ push_back; pop_front ];
    memory_words = Layout.used_words layout;
    setup;
    make_driver;
  }
