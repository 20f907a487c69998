(* Building your own workload against the public API.

     dune exec examples/custom_workload.exe

   The example implements a tiny "bank" with an audit operation:
   - [deposit] has a fixed footprint (immutable -> NS-CL eligible);
   - [audit] walks the account list — an indirection, but through links no
     AR ever writes, so it classifies as likely immutable (S-CL eligible).

   It shows the three layers a workload touches: the assembler eDSL for AR
   bodies, the static mutability analysis, and the engine. *)

module A = Isa.Asm
module I = Isa.Instr
module P = Isa.Program
module W = Machine.Workload
module Config = Machine.Config
module Stats = Machine.Stats

let reg r = I.Reg r

let imm i = I.Imm i

(* Accounts: a linked list of [balance; next] records, plus a standalone
   total-deposits counter. *)
let accounts = 10

let counter_addr = 64

let account_addr i = 128 + (i * 8)

let deposit =
  P.build_ar ~id:0 ~name:"deposit" (fun b ->
      (* r0 = &account.balance, r1 = amount, r2 = &total counter *)
      A.ld b ~dst:8 ~base:(reg 0) ~region:"acct" ();
      A.add b ~dst:8 (reg 8) (reg 1);
      A.st b ~base:(reg 0) ~src:(reg 8) ~region:"acct" ();
      A.ld b ~dst:9 ~base:(reg 2) ~region:"total" ();
      A.add b ~dst:9 (reg 9) (reg 1);
      A.st b ~base:(reg 2) ~src:(reg 9) ~region:"total" ();
      A.halt b)

let audit =
  P.build_ar ~id:1 ~name:"audit" (fun b ->
      (* r0 = first account, r5 = mailbox: sum balances along next links *)
      let loop = A.new_label b in
      let done_ = A.new_label b in
      A.mov b ~dst:9 (imm 0);
      A.mov b ~dst:8 (reg 0);
      A.place b loop;
      A.brc b I.Eq (reg 8) (imm 0) done_;
      A.ld b ~dst:10 ~base:(reg 8) ~region:"acct" ();
      A.add b ~dst:9 (reg 9) (reg 10);
      A.ld b ~dst:8 ~base:(reg 8) ~off:1 ~region:"acct.link" ();
      A.jmp b loop;
      A.place b done_;
      A.st b ~base:(reg 5) ~src:(reg 9) ~region:"mailbox" ();
      A.halt b)

let mailbox tid = 2048 + (tid * 8)

let bank : W.t =
  {
    W.name = "bank";
    description = "deposits + list-walking audits";
    ars = [ deposit; audit ];
    memory_words = 4096;
    setup =
      (fun store _rng ->
        Mem.Store.write store counter_addr 0;
        for i = 0 to accounts - 1 do
          Mem.Store.write store (account_addr i) 100;
          Mem.Store.write store
            (account_addr i + 1)
            (if i = accounts - 1 then 0 else account_addr (i + 1))
        done);
    make_driver =
      (fun ~tid ~threads:_ _store rng () ->
        if Simrt.Rng.chance rng 0.8 then
          let i = Simrt.Rng.int rng accounts in
          W.op deposit [ (0, account_addr i); (1, 1 + Simrt.Rng.int rng 9); (2, counter_addr) ]
        else W.op audit [ (0, account_addr 0); (5, mailbox tid) ]);
  }

let () =
  (* 1. Static view: what will CLEAR be able to do with these regions? *)
  print_endline "static classification:";
  List.iter
    (fun (ar, c) ->
      Printf.printf "  %-8s -> %s\n" ar.P.name (Clear.Analysis.classification_name c))
    (Clear.Analysis.classify_workload bank.W.ars);
  print_newline ();
  (* 2. Dynamic view: run it under baseline and CLEAR. *)
  List.iter
    (fun (label, preset) ->
      let cfg = { preset with Config.cores = 8; ops_per_thread = 400 } in
      let engine = Machine.Engine.create cfg bank in
      let stats = Machine.Engine.run engine in
      Printf.printf "%-22s cycles=%-8d aborts/commit=%-5.2f NS-CL=%d S-CL=%d fallback=%d\n" label
        (Stats.total_cycles stats) (Stats.aborts_per_commit stats)
        (Stats.commits_in_mode stats Stats.Nscl)
        (Stats.commits_in_mode stats Stats.Scl)
        (Stats.commits_in_mode stats Stats.Fallback);
      (* 3. The audit invariant: deposits are atomic, so the final total
            counter equals the sum of balance growth. *)
      let store = Machine.Engine.store engine in
      let balances = ref 0 in
      for i = 0 to accounts - 1 do
        balances := !balances + Mem.Store.read store (account_addr i)
      done;
      let grown = !balances - (accounts * 100) in
      assert (grown = Mem.Store.read store counter_addr);
      Printf.printf "%-22s invariant holds: balance growth %d == total counter\n" "" grown)
    [ ("baseline (B)", Config.baseline); ("CLEAR+PowerTM (W)", Config.clear_power) ]
