module A = Isa.Asm
module P = Isa.Program
module W = Machine.Workload
open Common

(* Triangle record: [quality; n1; n2; n3] — one line each. *)
let t_quality = 0

let neighbor_offsets = [ 1; 2; 3 ]

let build_pop_work ~id ~regions =
  P.build_ar ~id ~name:"pop_work" ~regions (fun b ->
      (* r0 = &head, r1 = ring base, r3 = capacity, r5 = mailbox *)
      A.ld b ~dst:8 ~base:(reg 0) ~region:"yada.idx" ();
      A.binop b Isa.Instr.Rem ~dst:9 (reg 8) (reg 3);
      A.add b ~dst:9 (reg 9) (reg 1);
      A.ld b ~dst:10 ~base:(reg 9) ~region:"yada.ring" ();
      A.st b ~base:(reg 5) ~src:(reg 10) ~region:"mailbox" ();
      A.add b ~dst:8 (reg 8) (imm 1);
      A.st b ~base:(reg 0) ~src:(reg 8) ~region:"yada.idx" ();
      A.halt b)

let build_push_work ~id ~regions =
  P.build_ar ~id ~name:"push_work" ~regions (fun b ->
      (* r0 = &tail, r1 = ring base, r3 = capacity, r2 = triangle addr *)
      A.ld b ~dst:8 ~base:(reg 0) ~region:"yada.idx" ();
      A.binop b Isa.Instr.Rem ~dst:9 (reg 8) (reg 3);
      A.add b ~dst:9 (reg 9) (reg 1);
      A.st b ~base:(reg 9) ~src:(reg 2) ~region:"yada.ring" ();
      A.add b ~dst:8 (reg 8) (imm 1);
      A.st b ~base:(reg 0) ~src:(reg 8) ~region:"yada.idx" ();
      A.halt b)

(* Improve a triangle: bump its quality and its live neighbours'. *)
let build_refine ~id ~regions =
  P.build_ar ~id ~name:"refine" ~regions (fun b ->
      (* r0 = triangle, r1 = delta *)
      A.ld b ~dst:8 ~base:(reg 0) ~off:t_quality ~region:"yada.tri" ();
      A.add b ~dst:8 (reg 8) (reg 1);
      A.st b ~base:(reg 0) ~off:t_quality ~src:(reg 8) ~region:"yada.tri" ();
      let skips =
        List.map
          (fun off ->
            let skip = A.new_label b in
            A.ld b ~dst:9 ~base:(reg 0) ~off ~region:"yada.tri" ();
            A.brc b Isa.Instr.Eq (reg 9) (imm 0) skip;
            A.ld b ~dst:10 ~base:(reg 9) ~off:t_quality ~region:"yada.tri" ();
            A.add b ~dst:10 (reg 10) (imm 1);
            A.st b ~base:(reg 9) ~off:t_quality ~src:(reg 10) ~region:"yada.tri" ();
            skip)
          neighbor_offsets
      in
      List.iter (fun skip -> A.place b skip) skips;
      A.halt b)

(* Split: insert a fresh triangle between [r0] and its first neighbour,
   fixing up the displaced neighbour's back link. *)
let build_split ~id ~regions =
  P.build_ar ~id ~name:"split" ~regions (fun b ->
      (* r0 = triangle, r2 = fresh triangle *)
      let no_neighbor = A.new_label b in
      A.ld b ~dst:8 ~base:(reg 0) ~off:1 ~region:"yada.tri" ();
      A.st b ~base:(reg 2) ~off:t_quality ~src:(imm 0) ~region:"yada.tri" ();
      A.st b ~base:(reg 2) ~off:1 ~src:(reg 8) ~region:"yada.tri" ();
      A.st b ~base:(reg 2) ~off:2 ~src:(reg 0) ~region:"yada.tri" ();
      A.st b ~base:(reg 2) ~off:3 ~src:(imm 0) ~region:"yada.tri" ();
      A.st b ~base:(reg 0) ~off:1 ~src:(reg 2) ~region:"yada.tri" ();
      A.brc b Isa.Instr.Eq (reg 8) (imm 0) no_neighbor;
      A.st b ~base:(reg 8) ~off:2 ~src:(reg 2) ~region:"yada.tri" ();
      A.place b no_neighbor;
      A.halt b)

(* Count bad-quality triangles in a neighbourhood. *)
let build_check ~id ~regions =
  P.build_ar ~id ~name:"check_quality" ~regions (fun b ->
      (* r0 = triangle, r1 = threshold, r5 = mailbox *)
      A.mov b ~dst:12 (imm 0);
      let bump = A.new_label b in
      let after_self = A.new_label b in
      A.ld b ~dst:8 ~base:(reg 0) ~off:t_quality ~region:"yada.tri" ();
      A.brc b Isa.Instr.Lt (reg 8) (reg 1) bump;
      A.jmp b after_self;
      A.place b bump;
      A.add b ~dst:12 (reg 12) (imm 1);
      A.place b after_self;
      let skips =
        List.map
          (fun off ->
            let skip = A.new_label b in
            let bump_n = A.new_label b in
            A.ld b ~dst:9 ~base:(reg 0) ~off ~region:"yada.tri" ();
            A.brc b Isa.Instr.Eq (reg 9) (imm 0) skip;
            A.ld b ~dst:10 ~base:(reg 9) ~off:t_quality ~region:"yada.tri" ();
            A.brc b Isa.Instr.Lt (reg 10) (reg 1) bump_n;
            A.jmp b skip;
            A.place b bump_n;
            A.add b ~dst:12 (reg 12) (imm 1);
            A.place b skip;
            skip)
          neighbor_offsets
      in
      ignore (skips : Isa.Asm.label list);
      A.st b ~base:(reg 5) ~src:(reg 12) ~region:"mailbox" ();
      A.halt b)

let triangles = 48
let ring_capacity = 64
let pool_per_thread = 256

let workload =
  let layout = Layout.create () in
  let head = Layout.alloc_line ~region:"yada.idx" layout in
  let tail = Layout.alloc_line ~region:"yada.idx" layout in
  let ring = Layout.alloc_lines ~region:"yada.ring" layout (ring_capacity / Mem.Addr.words_per_line) in
  let counter = Layout.alloc_line ~region:"yada.count" layout in
  let tris = Array.init triangles (fun _ -> Layout.alloc_line ~region:"yada.tri" layout) in
  let mail = mailboxes layout ~threads:max_threads in
  (* Pool lines are handed to [split] as fresh triangles and written under
     the "yada.tri" tag, so they must fall inside that region's extent. *)
  let pools =
    Array.init max_threads (fun _ ->
        Array.init pool_per_thread (fun _ -> Layout.alloc_line ~region:"yada.tri" layout))
  in
  let regions = Layout.extents layout in
  let pop_work = build_pop_work ~id:0 ~regions in
  let push_work = build_push_work ~id:1 ~regions in
  let refine = build_refine ~id:2 ~regions in
  let split = build_split ~id:3 ~regions in
  let check = build_check ~id:4 ~regions in
  let global_counter = fetch_add_ar ~id:5 ~name:"global_counter" ~region:"yada.count" ~regions () in
  let setup store rng =
    Mem.Store.write store head 0;
    Mem.Store.write store tail (ring_capacity / 2);
    for i = 0 to ring_capacity - 1 do
      Mem.Store.write store (ring + i) tris.(Simrt.Rng.int rng triangles)
    done;
    Mem.Store.write store counter 0;
    (* Ring topology: triangle i neighbours i-1 and i+1 (0 = none). *)
    Array.iteri
      (fun i tri ->
        Mem.Store.write store (tri + t_quality) (Simrt.Rng.int rng 10);
        Mem.Store.write store (tri + 1) (if i + 1 < triangles then tris.(i + 1) else 0);
        Mem.Store.write store (tri + 2) (if i > 0 then tris.(i - 1) else 0);
        Mem.Store.write store (tri + 3) 0)
      tris
  in
  let make_driver ~tid ~threads:_ _store rng =
    let pool = pools.(tid) in
    let cursor = ref 0 in
    fun () ->
      let dice = Simrt.Rng.float rng 1.0 in
      let tri = tris.(Simrt.Rng.zipf rng ~n:triangles ~theta:zipf_theta_light) in
      if dice < 0.2 then W.op pop_work [ (0, head); (1, ring); (3, ring_capacity); (5, mail.(tid)) ]
      else if dice < 0.35 then W.op push_work [ (0, tail); (1, ring); (3, ring_capacity); (2, tri) ]
      else if dice < 0.6 then W.op refine [ (0, tri); (1, 1) ]
      else if dice < 0.7 && !cursor < Array.length pool then begin
        let fresh = pool.(!cursor) in
        incr cursor;
        W.op split [ (0, tri); (2, fresh) ]
      end
      else if dice < 0.9 then W.op check [ (0, tri); (1, 5); (5, mail.(tid)) ]
      else W.op global_counter [ (0, counter); (1, 1) ]
  in
  {
    W.name = "yada";
    description = "mesh refinement: work ring + neighbour-linked triangles";
    ars = [ pop_work; push_work; refine; split; check; global_counter ];
    memory_words = Layout.used_words layout;
    setup;
    make_driver;
  }
