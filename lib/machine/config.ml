let lq_entries = 128

let sq_entries = 72

let xbegin_cost = 12

let xend_cost = 12

let abort_penalty = 30

let spin_cycles = 60

let think_cycles = 150

type htm_policy = Requester_wins | Power_tm

type frontend = Htm | Sle

type open_process = Open_poisson | Open_burst of { heat : float }

type open_queue = {
  open_rate : float;
  open_requests : int;
  open_process : open_process;
  open_queue_cap : int;
}

type t = {
  cores : int;
  mem_params : Mem.Params.t;
  memory_words : int;
  rob_entries : int;
  frontend : frontend;
  policy : htm_policy;
  max_retries : int;
  clear_enabled : bool;
  failed_mode_discovery : bool;
  use_crt : bool;
  crt_decay : bool;
  ops_per_thread : int;
  seed : int;
  sched : Sched.Profile.t;
  openloop : open_queue option;
  fault_blind_line : int option;
  fault_numa_blind : bool;
}

let default =
  {
    cores = 32;
    mem_params = Mem.Params.icelake_like;
    memory_words = 1 lsl 22 (* 4 M words = 32 MiB *);
    rob_entries = 352;
    frontend = Htm;
    policy = Requester_wins;
    max_retries = 4;
    clear_enabled = false;
    failed_mode_discovery = true;
    use_crt = true;
    crt_decay = true;
    ops_per_thread = 400;
    seed = 42;
    sched = Sched.Profile.symmetric;
    openloop = None;
    fault_blind_line = None;
    fault_numa_blind = false;
  }

let baseline = default

let power_tm = { default with policy = Power_tm }

let clear_rw = { default with clear_enabled = true }

let clear_power = { default with policy = Power_tm; clear_enabled = true }

let with_frontend t f = { t with frontend = f }

let preset_letter t =
  match (t.policy, t.clear_enabled) with
  | Requester_wins, false -> "B"
  | Power_tm, false -> "P"
  | Requester_wins, true -> "C"
  | Power_tm, true -> "W"

let with_retries t n = { t with max_retries = n }

let with_seed t s = { t with seed = s }

let with_openloop t q =
  (match q with
  | None -> ()
  | Some q ->
      if q.open_rate <= 0.0 then invalid_arg "Config.with_openloop: open_rate must be positive";
      if q.open_requests <= 0 then
        invalid_arg "Config.with_openloop: open_requests must be positive";
      if q.open_queue_cap < 0 then
        invalid_arg "Config.with_openloop: open_queue_cap must be non-negative";
      match q.open_process with
      | Open_poisson -> ()
      | Open_burst { heat } ->
          if heat < 0.0 then invalid_arg "Config.with_openloop: negative burst heat");
  { t with openloop = q }

let open_process_name = function
  | Open_poisson -> "poisson"
  | Open_burst { heat } -> Printf.sprintf "burst(h%.1f)" heat

let with_sched t p =
  (match Sched.Profile.validate p with
  | [] -> ()
  | problems ->
      invalid_arg
        (Printf.sprintf "Config.with_sched: invalid profile %S: %s" p.Sched.Profile.name
           (String.concat "; " problems)));
  { t with sched = p }

let policy_name = function Requester_wins -> "requester-wins" | Power_tm -> "PowerTM"

let pp ppf t =
  let p = t.mem_params in
  Format.fprintf ppf
    "@[<v>Core      | %d-core out-of-order Icelake-like. ROB: %d uops; LQ: %d entries; SQ: %d entries@,\
     L1 Cache  | Data: %d sets x %d ways (48KiB), %d-cycle access latency@,\
     L2 Cache  | %d sets x %d ways (512KiB), %d-cycle access latency@,\
     L3 Cache  | %d sets x %d ways (4MiB), %d-cycle access latency@,\
     Memory    | %d-cycle access latency@,\
     Coherence | MESI directory, %d sets; %d-cycle message hop@,\
     HTM       | %s, %s%s; %d retries before taking the fallback lock@]"
    t.cores t.rob_entries lq_entries sq_entries p.Mem.Params.l1_sets p.Mem.Params.l1_ways
    p.Mem.Params.l1_hit p.Mem.Params.l2_sets p.Mem.Params.l2_ways p.Mem.Params.l2_hit
    p.Mem.Params.l3_sets p.Mem.Params.l3_ways p.Mem.Params.l3_hit p.Mem.Params.memory
    p.Mem.Params.dir_sets p.Mem.Params.coherence_msg (policy_name t.policy)
    (match t.frontend with Htm -> "out-of-core (HTM)" | Sle -> "in-core (SLE)")
    (if t.clear_enabled then " + CLEAR" else "")
    t.max_retries
