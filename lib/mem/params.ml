type t = {
  l1_sets : int;
  l1_ways : int;
  l2_sets : int;
  l2_ways : int;
  l3_sets : int;
  l3_ways : int;
  dir_sets : int;
  l1_hit : int;
  l2_hit : int;
  l3_hit : int;
  memory : int;
  remote_transfer : int;
  coherence_msg : int;
}

(* 48KiB / 64B / 12 ways = 64 sets; 512KiB / 64B / 8 = 1024 sets;
   4MiB / 64B / 16 = 4096 sets. Directory coverage is 800% of L3 lines at
   16 ways: 65536 * 8 / 16 = 32768 sets. *)
let icelake_like =
  {
    l1_sets = 64;
    l1_ways = 12;
    l2_sets = 1024;
    l2_ways = 8;
    l3_sets = 4096;
    l3_ways = 16;
    dir_sets = 32768;
    l1_hit = 1;
    l2_hit = 10;
    l3_hit = 45;
    memory = 80;
    remote_transfer = 40;
    coherence_msg = 12;
  }

let tiny =
  {
    l1_sets = 4;
    l1_ways = 2;
    l2_sets = 16;
    l2_ways = 2;
    l3_sets = 64;
    l3_ways = 4;
    dir_sets = 128;
    l1_hit = 1;
    l2_hit = 10;
    l3_hit = 45;
    memory = 80;
    remote_transfer = 40;
    coherence_msg = 12;
  }

let dir_set_of t line = line land (t.dir_sets - 1)

let load_latency t ~level =
  match level with
  | `L1 -> t.l1_hit
  | `L2 -> t.l1_hit + t.l2_hit
  | `L3 -> t.l1_hit + t.l2_hit + t.l3_hit
  | `Mem -> t.l1_hit + t.l2_hit + t.l3_hit + t.memory
