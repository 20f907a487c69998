module A = Isa.Asm
module P = Isa.Program
module W = Machine.Workload
open Common

(* Node offsets. Deletion is lazy (the [alive] flag), the standard idiom for
   concurrent BSTs: removals touch one random interior line instead of
   hammering a spine. *)
let o_key = 0

let o_left = 1

let o_right = 2

let o_alive = 3

let build_insert ~id ~regions =
  P.build_ar ~id ~regions ~name:"insert" (fun b ->
      (* r0 = &root pointer, r1 = key, r2 = fresh node. Revives the key if a
         dead node for it exists. *)
      let loop = A.new_label b in
      let go_left = A.new_label b in
      let link_left = A.new_label b in
      let link_right = A.new_label b in
      let set_root = A.new_label b in
      let revive = A.new_label b in
      let done_ = A.new_label b in
      A.st b ~base:(reg 2) ~off:o_key ~src:(reg 1) ~region:"bst.node" ();
      A.st b ~base:(reg 2) ~off:o_left ~src:(imm 0) ~region:"bst.node" ();
      A.st b ~base:(reg 2) ~off:o_right ~src:(imm 0) ~region:"bst.node" ();
      A.st b ~base:(reg 2) ~off:o_alive ~src:(imm 1) ~region:"bst.node" ();
      A.ld b ~dst:8 ~base:(reg 0) ~region:"bst.root" ();
      A.brc b Isa.Instr.Eq (reg 8) (imm 0) set_root;
      A.place b loop;
      A.ld b ~dst:9 ~base:(reg 8) ~off:o_key ~region:"bst.node" ();
      A.brc b Isa.Instr.Eq (reg 9) (reg 1) revive;
      A.brc b Isa.Instr.Lt (reg 1) (reg 9) go_left;
      A.ld b ~dst:10 ~base:(reg 8) ~off:o_right ~region:"bst.node" ();
      A.brc b Isa.Instr.Eq (reg 10) (imm 0) link_right;
      A.mov b ~dst:8 (reg 10);
      A.jmp b loop;
      A.place b go_left;
      A.ld b ~dst:10 ~base:(reg 8) ~off:o_left ~region:"bst.node" ();
      A.brc b Isa.Instr.Eq (reg 10) (imm 0) link_left;
      A.mov b ~dst:8 (reg 10);
      A.jmp b loop;
      A.place b link_left;
      A.st b ~base:(reg 8) ~off:o_left ~src:(reg 2) ~region:"bst.node" ();
      A.jmp b done_;
      A.place b link_right;
      A.st b ~base:(reg 8) ~off:o_right ~src:(reg 2) ~region:"bst.node" ();
      A.jmp b done_;
      A.place b revive;
      A.st b ~base:(reg 8) ~off:o_alive ~src:(imm 1) ~region:"bst.node" ();
      A.jmp b done_;
      A.place b set_root;
      A.st b ~base:(reg 0) ~src:(reg 2) ~region:"bst.root" ();
      A.place b done_;
      A.halt b)

(* Shared traversal for contains/delete: walk to the key, then run [found]
   with r8 = node, or fall through to [missing]. *)
let search_body b ~found_action =
  let loop = A.new_label b in
  let go_left = A.new_label b in
  let found = A.new_label b in
  let missing = A.new_label b in
  let done_ = A.new_label b in
  A.ld b ~dst:8 ~base:(reg 0) ~region:"bst.root" ();
  A.place b loop;
  A.brc b Isa.Instr.Eq (reg 8) (imm 0) missing;
  A.ld b ~dst:9 ~base:(reg 8) ~off:o_key ~region:"bst.node" ();
  A.brc b Isa.Instr.Eq (reg 9) (reg 1) found;
  A.brc b Isa.Instr.Lt (reg 1) (reg 9) go_left;
  A.ld b ~dst:8 ~base:(reg 8) ~off:o_right ~region:"bst.node" ();
  A.jmp b loop;
  A.place b go_left;
  A.ld b ~dst:8 ~base:(reg 8) ~off:o_left ~region:"bst.node" ();
  A.jmp b loop;
  A.place b found;
  found_action ();
  A.jmp b done_;
  A.place b missing;
  A.st b ~base:(reg 3) ~src:(imm 0) ~region:"mailbox" ();
  A.place b done_;
  A.halt b

let build_contains ~id ~regions =
  P.build_ar ~id ~regions ~name:"contains" (fun b ->
      (* r0 = &root, r1 = key, r3 = mailbox: 1 when present and alive *)
      search_body b ~found_action:(fun () ->
          A.ld b ~dst:10 ~base:(reg 8) ~off:o_alive ~region:"bst.node" ();
          A.st b ~base:(reg 3) ~src:(reg 10) ~region:"mailbox" ()))

let build_delete ~id ~regions =
  P.build_ar ~id ~regions ~name:"delete" (fun b ->
      (* r0 = &root, r1 = key, r3 = mailbox: lazy delete (mark dead) *)
      search_body b ~found_action:(fun () ->
          A.st b ~base:(reg 8) ~off:o_alive ~src:(imm 0) ~region:"bst.node" ();
          A.st b ~base:(reg 3) ~src:(imm 1) ~region:"mailbox" ()))

let initial = 96
let key_range = 1024
let pool_per_thread = 512

let workload =
  let layout = Layout.create () in
  let root = Layout.alloc_line ~region:"bst.root" layout in
  let mail = mailboxes layout ~threads:max_threads in
  let setup_pool =
    Array.init initial (fun _ -> Layout.alloc_lines ~region:"bst.node" layout 1)
  in
  let pools =
    Array.init max_threads (fun _ ->
        Array.init pool_per_thread (fun _ -> Layout.alloc_line ~region:"bst.node" layout))
  in
  let regions = Layout.extents layout in
  let insert = build_insert ~id:0 ~regions in
  let contains = build_contains ~id:1 ~regions in
  let delete = build_delete ~id:2 ~regions in
  let setup store rng =
    Mem.Store.write store root 0;
    (* Host-side insert of the initial keys using the setup pool. *)
    let used = ref 0 in
    let insert_key key =
      if !used < Array.length setup_pool then begin
        let node = setup_pool.(!used) in
        let rec place link =
          let cur = Mem.Store.read store link in
          if cur = 0 then begin
            Mem.Store.write store link node;
            Mem.Store.write store (node + o_key) key;
            Mem.Store.write store (node + o_left) 0;
            Mem.Store.write store (node + o_right) 0;
            Mem.Store.write store (node + o_alive) 1;
            incr used
          end
          else begin
            let k = Mem.Store.read store (cur + o_key) in
            if key = k then ()
            else if key < k then place (cur + o_left)
            else place (cur + o_right)
          end
        in
        place root
      end
    in
    for _ = 1 to initial do
      insert_key (Simrt.Rng.int rng key_range)
    done
  in
  let make_driver ~tid ~threads:_ _store rng =
    let pool = pools.(tid) in
    let cursor = ref 0 in
    fun () ->
      let key = Simrt.Rng.int rng key_range in
      let dice = Simrt.Rng.float rng 1.0 in
      if dice < 0.3 && !cursor < Array.length pool then begin
        let node = pool.(!cursor) in
        incr cursor;
        W.op insert [ (0, root); (1, key); (2, node) ]
      end
      else if dice < 0.75 then W.op contains [ (0, root); (1, key); (3, mail.(tid)) ]
      else W.op delete [ (0, root); (1, key); (3, mail.(tid)) ]
  in
  {
    W.name = "bst";
    description = "binary search tree: insert / contains / lazy delete";
    ars = [ insert; contains; delete ];
    memory_words = Layout.used_words layout;
    setup;
    make_driver;
  }
