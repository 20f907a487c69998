module A = Isa.Asm
module P = Isa.Program
module W = Machine.Workload
open Common

(* Node offsets *)
let o_val = 0

let o_next = 1

let build_enqueue ~id ~regions =
  P.build_ar ~id ~name:"enqueue" ~regions (fun b ->
      (* r0 = &tail ptr, r1 = value, r2 = fresh node *)
      A.st b ~base:(reg 2) ~off:o_val ~src:(reg 1) ~region:"q.node" ();
      A.st b ~base:(reg 2) ~off:o_next ~src:(imm 0) ~region:"q.node" ();
      A.ld b ~dst:8 ~base:(reg 0) ~region:"q.tail" ();
      A.st b ~base:(reg 8) ~off:o_next ~src:(reg 2) ~region:"q.node" ();
      A.st b ~base:(reg 0) ~src:(reg 2) ~region:"q.tail" ();
      A.halt b)

let build_dequeue ~id ~regions =
  P.build_ar ~id ~name:"dequeue" ~regions (fun b ->
      (* r0 = &head ptr, r5 = mailbox. Head points at the consumed sentinel. *)
      let empty = A.new_label b in
      let done_ = A.new_label b in
      A.ld b ~dst:8 ~base:(reg 0) ~region:"q.head" ();
      A.ld b ~dst:9 ~base:(reg 8) ~off:o_next ~region:"q.node" ();
      A.brc b Isa.Instr.Eq (reg 9) (imm 0) empty;
      A.ld b ~dst:10 ~base:(reg 9) ~off:o_val ~region:"q.node" ();
      A.st b ~base:(reg 5) ~src:(reg 10) ~region:"mailbox" ();
      A.st b ~base:(reg 0) ~src:(reg 9) ~region:"q.head" ();
      A.jmp b done_;
      A.place b empty;
      A.st b ~base:(reg 5) ~src:(imm (-1)) ~region:"mailbox" ();
      A.place b done_;
      A.halt b)

let pool_per_thread = 512

let workload =
  let layout = Layout.create () in
  let head = Layout.alloc_line ~region:"q.head" layout in
  let tail = Layout.alloc_line ~region:"q.tail" layout in
  let sentinel = Layout.alloc_line ~region:"q.node" layout in
  let mail = mailboxes layout ~threads:max_threads in
  let pools =
    Array.init max_threads (fun _ ->
        Array.init pool_per_thread (fun _ -> Layout.alloc_line ~region:"q.node" layout))
  in
  let regions = Layout.extents layout in
  let enqueue = build_enqueue ~id:0 ~regions in
  let dequeue = build_dequeue ~id:1 ~regions in
  let setup store _rng =
    Mem.Store.write store (sentinel + o_val) 0;
    Mem.Store.write store (sentinel + o_next) 0;
    Mem.Store.write store head sentinel;
    Mem.Store.write store tail sentinel
  in
  let make_driver ~tid ~threads:_ _store rng =
    let pool = pools.(tid) in
    let cursor = ref 0 in
    fun () ->
      if Simrt.Rng.bool rng && !cursor < Array.length pool then begin
        let node = pool.(!cursor) in
        incr cursor;
        W.op enqueue [ (0, tail); (1, Simrt.Rng.int rng 1000); (2, node) ]
      end
      else W.op dequeue [ (0, head); (5, mail.(tid)) ]
  in
  {
    W.name = "queue";
    description = "linked FIFO queue: enqueue / dequeue";
    ars = [ enqueue; dequeue ];
    memory_words = Layout.used_words layout;
    setup;
    make_driver;
  }
