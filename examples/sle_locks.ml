(* Speculation front-ends: HTM vs SLE (paper §4.1/§4.3).

     dune exec examples/sle_locks.exe

   The same hashmap runs under both front-ends. Under HTM, every exhausted
   retry grabs ONE global fallback lock, so a single hot bucket can stall the
   whole machine. Under SLE the fallback path acquires the bucket's own
   elided mutex, so unrelated buckets keep committing. CLEAR composes with
   both. *)

module Config = Machine.Config
module Engine = Machine.Engine
module Stats = Machine.Stats

let describe label cfg workload =
  let stats = Engine.run_workload cfg workload in
  Printf.printf "%-24s cycles=%-9d aborts/commit=%-6.2f explicit-fb=%-5d other-fb=%-5d fallback-commits=%d\n"
    label (Stats.total_cycles stats) (Stats.aborts_per_commit stats)
    (Stats.aborts_with_cause stats Machine.Abort.Explicit_fallback)
    (Stats.aborts_with_cause stats Machine.Abort.Other_fallback)
    (Stats.commits_in_mode stats Stats.Fallback)

let () =
  let workload = Workloads.Registry.find "hashmap" in
  Printf.printf "benchmark: %s (16 cores, retry limit 1 to force fallback traffic)\n\n"
    workload.Machine.Workload.name;
  let shape preset frontend =
    {
      preset with
      Config.cores = 16;
      ops_per_thread = 250;
      max_retries = 1;
      frontend;
    }
  in
  describe "B / HTM (global lock)" (shape Config.baseline Config.Htm) workload;
  describe "B / SLE (bucket locks)" (shape Config.baseline Config.Sle) workload;
  describe "W / HTM" (shape Config.clear_power Config.Htm) workload;
  describe "W / SLE" (shape Config.clear_power Config.Sle) workload;
  print_newline ();
  print_endline
    "SLE's per-mutex fallback removes most explicit/other-fallback aborts: threads only\n\
     queue behind the bucket they actually need. CLEAR then removes most of the fallback\n\
     executions themselves."
