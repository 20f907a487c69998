module A = Isa.Asm
module P = Isa.Program

let reg r = Isa.Instr.Reg r

let imm i = Isa.Instr.Imm i

let max_threads = Mem.Directory.max_cores

(* Zipf popularity skews shared by the workload drivers. Values are the
   historical per-workload defaults, hoisted so every driver (and the
   open-system traffic generator) names the same skew tiers. *)
let zipf_theta_heavy = 0.6

let zipf_theta_default = 0.4

let zipf_theta_light = 0.3

let mailboxes layout ~threads =
  Array.init threads (fun _ -> Layout.alloc_line ~region:"mailbox" layout)

let fetch_add_ar ?regions ~id ~name ~region () =
  P.build_ar ?regions ~id ~name (fun b ->
      A.ld b ~dst:8 ~base:(reg 0) ~region ();
      A.add b ~dst:8 (reg 8) (reg 1);
      A.st b ~base:(reg 0) ~src:(reg 8) ~region ();
      A.halt b)

let dir_update_ar ?regions ~id ~name ~dir_region ~record_region ~fields () =
  P.build_ar ?regions ~id ~name (fun b ->
      A.ld b ~dst:8 ~base:(reg 0) ~region:dir_region ();
      List.iter
        (fun (off, action) ->
          match action with
          | `Add_reg r ->
              A.ld b ~dst:9 ~base:(reg 8) ~off ~region:record_region ();
              A.add b ~dst:9 (reg 9) (reg r);
              A.st b ~base:(reg 8) ~off ~src:(reg 9) ~region:record_region ()
          | `Set_reg r -> A.st b ~base:(reg 8) ~off ~src:(reg r) ~region:record_region ())
        fields;
      A.halt b)

let dir_read_ar ?regions ~id ~name ~dir_region ~record_region ~offsets ~mailbox_reg () =
  P.build_ar ?regions ~id ~name (fun b ->
      A.ld b ~dst:8 ~base:(reg 0) ~region:dir_region ();
      A.mov b ~dst:9 (imm 0);
      List.iter
        (fun off ->
          A.ld b ~dst:10 ~base:(reg 8) ~off ~region:record_region ();
          A.add b ~dst:9 (reg 9) (reg 10))
        offsets;
      A.st b ~base:(reg mailbox_reg) ~src:(reg 9) ~region:"mailbox" ();
      A.halt b)
