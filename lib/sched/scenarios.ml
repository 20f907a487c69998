let symmetric = Profile.symmetric

let hot_core =
  {
    Profile.name = "hot_core";
    description = "one pinned core with near-zero think and 2x the ops";
    think = Profile.Default;
    hot_cores = 1;
    hot_think = Profile.Const 20;
    hot_op_mult = 2;
    phase_stride = 0;
    numa = Mem.Numa.flat;
  }

let skewed_think =
  {
    Profile.name = "skewed_think";
    description = "heavy-tailed think on every core: bursts then silence";
    think = Profile.Burst { lo = 30; hi = 600; heat = 1.5 };
    hot_cores = 0;
    hot_think = Profile.Default;
    hot_op_mult = 1;
    phase_stride = 0;
    numa = Mem.Numa.flat;
  }

let numa2x =
  {
    Profile.name = "numa2x";
    description = "two sockets; remote-slice accesses pay a +60-cycle adder";
    think = Profile.Default;
    hot_cores = 0;
    hot_think = Profile.Default;
    hot_op_mult = 1;
    phase_stride = 0;
    numa = Mem.Numa.two_socket ~remote:60;
  }

let phased_start =
  {
    Profile.name = "phased_start";
    description = "cores start in a 400-cycle-stride wave, not a stampede";
    think = Profile.Default;
    hot_cores = 0;
    hot_think = Profile.Default;
    hot_op_mult = 1;
    phase_stride = 400;
    numa = Mem.Numa.flat;
  }

let all =
  [
    ("symmetric", symmetric);
    ("hot_core", hot_core);
    ("skewed_think", skewed_think);
    ("numa2x", numa2x);
    ("phased_start", phased_start);
  ]

let names = List.map fst all

let find name = List.assoc_opt name all
