module Counter = Simrt.Counter

type outcome = { latency : int; l1_victim : Addr.line }

(* Counter cells resolved once at create: the access path bumps them
   directly instead of hashing a counter name per access. *)
type cells = {
  l1_hit : Counter.cell;
  l2_hit : Counter.cell;
  l3_hit : Counter.cell;
  mem_access : Counter.cell;
  coh_msgs : Counter.cell;
  remote_transfer : Counter.cell;
  numa_adder_cycles : Counter.cell;
  line_locks : Counter.cell;
}

type t = {
  params : Params.t;
  store : Store.t;
  directory : Directory.t;
  l1s : Cache.t array;
  l2s : Cache.t array;
  l3 : Cache.t;
  cells : cells;
  numa : Numa.t;
  cores : int;
  l1_hit_outcome : outcome; (* shared by every L1-latency hit *)
}

let create ?(numa = Numa.flat) params ~cores ~store ~counters =
  if not (Numa.well_formed numa) then invalid_arg "Hierarchy.create: malformed NUMA matrix";
  let cell = Counter.cell counters in
  {
    params;
    store;
    directory = Directory.create ~cores ~lines:(Addr.line_of (Store.size store - 1) + 1);
    l1s = Array.init cores (fun _ -> Cache.create ~sets:params.Params.l1_sets ~ways:params.Params.l1_ways);
    l2s = Array.init cores (fun _ -> Cache.create ~sets:params.Params.l2_sets ~ways:params.Params.l2_ways);
    l3 = Cache.create ~sets:params.Params.l3_sets ~ways:params.Params.l3_ways;
    cells =
      {
        l1_hit = cell "l1_hit";
        l2_hit = cell "l2_hit";
        l3_hit = cell "l3_hit";
        mem_access = cell "mem_access";
        coh_msgs = cell "coh_msgs";
        remote_transfer = cell "remote_transfer";
        numa_adder_cycles = cell "numa_adder_cycles";
        line_locks = cell "line_locks";
      };
    numa;
    cores;
    l1_hit_outcome = { latency = Params.load_latency params ~level:`L1; l1_victim = -1 };
  }

let params t = t.params

let directory t = t.directory

let l1 t ~core = t.l1s.(core)

let l2 t ~core = t.l2s.(core)

let locked_by t line = Directory.locked_by t.directory line

(* The extra cycles [core] pays to consult [line]'s home directory slice.
   Zero on the symmetric machine ([Numa.flat]); charged only when an access
   actually leaves the private caches, so L1 hits stay socket-blind. *)
let numa_adder t ~core line =
  Numa.adder t.numa ~cores:t.cores ~core ~dir_set:(Params.dir_set_of t.params line)

let charge_numa t n =
  if n > 0 then Counter.bump t.cells.numa_adder_cycles n;
  n

(* Install [line] in [core]'s private caches, spilling L1 victims into L2 and
   dropping L2 victims from the directory when they are no longer cached
   privately. Returns the L1 victim, -1 if none. *)
let install_private t ~core line =
  let l1 = t.l1s.(core) and l2 = t.l2s.(core) in
  let victim = Cache.insert l1 line in
  if victim >= 0 then begin
    let l2_victim = Cache.insert l2 victim in
    if l2_victim >= 0 && not (Cache.mem l1 l2_victim) then
      Directory.drop_core t.directory ~core l2_victim
  end;
  ignore (Cache.insert l2 line : Addr.line);
  victim

let charge_coherence t coh =
  let msgs = Directory.msgs coh and from_remote = Directory.from_remote coh in
  Counter.bump t.cells.coh_msgs msgs;
  if from_remote then Counter.tick t.cells.remote_transfer;
  (msgs * t.params.Params.coherence_msg / 4)
  + if from_remote then t.params.Params.remote_transfer else 0

(* Drop [line] from the private caches of every core in [mask]. *)
let invalidate_remote t line mask =
  let m = ref mask and c = ref 0 in
  while !m <> 0 do
    if !m land 1 <> 0 then begin
      ignore (Cache.invalidate t.l1s.(!c) line : bool);
      ignore (Cache.invalidate t.l2s.(!c) line : bool)
    end;
    m := !m lsr 1;
    incr c
  done

(* [holder] is the line's lock holder, looked up once by the caller. *)
let access t ~core line ~exclusive ~holder =
  let p = t.params in
  if holder = core then begin
    (* Pinned by our own cacheline lock: guaranteed L1-latency hit. *)
    Counter.tick t.cells.l1_hit;
    t.l1_hit_outcome
  end
  else begin
    let dir = t.directory in
    let coh =
      if exclusive then begin
        let coh = Directory.write dir ~core line in
        invalidate_remote t line (Directory.invalidated dir);
        coh
      end
      else Directory.read dir ~core line
    in
    let coh_latency = charge_coherence t coh in
    let l1 = t.l1s.(core) and l2 = t.l2s.(core) in
    (* Private caches hold only lines the directory lists this core for, so
       when it held no copy both probes would miss, and a miss moves no LRU
       age: go straight to the L3. An exclusive access that had to
       invalidate other copies pays the coherence round-trip even if its
       own tags hit. *)
    let held = Directory.held coh in
    if held && Cache.touch l1 line && Directory.msgs coh = 0 then begin
      Counter.tick t.cells.l1_hit;
      t.l1_hit_outcome
    end
    else if held && Cache.touch l2 line && not (Directory.from_remote coh) then begin
      Counter.tick t.cells.l2_hit;
      (* Private hit, but any coherence exchange went through the line's
         home slice — cross-socket requesters pay the asymmetry adder. *)
      let remote = if Directory.msgs coh > 0 then charge_numa t (numa_adder t ~core line) else 0 in
      let victim = install_private t ~core line in
      { latency = Params.load_latency p ~level:`L2 + coh_latency + remote; l1_victim = victim }
    end
    else begin
      (* One probe of the L3 set both answers the lookup and fills the
         line. A hit leaves it MRU, as a separate touch then insert did. *)
      let l3_hit = Cache.fill t.l3 line in
      let level =
        if Directory.from_remote coh || l3_hit then begin
          Counter.tick t.cells.l3_hit;
          `L3
        end
        else begin
          Counter.tick t.cells.mem_access;
          `Mem
        end
      in
      let victim = install_private t ~core line in
      (* Fills beyond the private caches are serviced via the home slice:
         always charge the asymmetry adder on this path. *)
      {
        latency = Params.load_latency p ~level + coh_latency + charge_numa t (numa_adder t ~core line);
        l1_victim = victim;
      }
    end
  end

let read_line t ~core line =
  let holder = locked_by t line in
  (* Callers must check the lock first; reading through a remote lock would
     violate atomicity. *)
  if holder >= 0 && holder <> core then invalid_arg "Hierarchy.read_line: line locked by another core";
  access t ~core line ~exclusive:false ~holder

let write_line t ~core line =
  let holder = locked_by t line in
  if holder >= 0 && holder <> core then invalid_arg "Hierarchy.write_line: line locked by another core";
  access t ~core line ~exclusive:true ~holder

let lock_line t ~core line =
  let holder = Directory.lock t.directory ~core line in
  if holder >= 0 then `Held_by holder
  else begin
    let invalidated = Directory.invalidated t.directory in
    invalidate_remote t line invalidated;
    Counter.tick t.cells.line_locks;
    Counter.bump t.cells.coh_msgs 2;
    let victim = install_private t ~core line in
    let transfer = if invalidated <> 0 then t.params.Params.remote_transfer else 0 in
    (* Lock acquisition always talks to the home slice. *)
    let remote = charge_numa t (numa_adder t ~core line) in
    `Acquired { latency = t.params.Params.coherence_msg + transfer + remote; l1_victim = victim }
  end

let locked_lines t ~core = Directory.locked_lines t.directory ~core

let unlock_all t ~core =
  let n = Directory.locked_count t.directory ~core in
  Directory.unlock_all t.directory ~core;
  Counter.bump t.cells.coh_msgs (if n = 0 then 0 else 1);
  n

let flush_core t ~core =
  Cache.iter t.l1s.(core) (fun line -> Directory.drop_core t.directory ~core line);
  Cache.iter t.l2s.(core) (fun line -> Directory.drop_core t.directory ~core line);
  Cache.clear t.l1s.(core);
  Cache.clear t.l2s.(core)

let release t =
  Array.iter Cache.clear t.l1s;
  Array.iter Cache.clear t.l2s;
  Cache.clear t.l3;
  Directory.release t.directory
