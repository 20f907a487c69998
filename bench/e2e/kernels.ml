(* Layer kernels: ns per call of one public function of a layer on a
   synthetic input — the rows of bench/main.exe's Bechamel [micro] set in
   this benchmark's schema. Each is the median of five timed batches after
   one warm-up batch. They are indicators of where a layer's cost sits;
   summing them means nothing. *)

let sink = ref 0

let time_batch ~iters f =
  let t0 = Spans.now () in
  f iters;
  float_of_int (Spans.now () - t0) /. float_of_int iters

(* [make] builds the kernel's input outside the timed region and returns
   the loop to time; state carries over between batches. *)
let ns_per_call ~iters make =
  let f = make () in
  f (max 1 (iters / 5));
  Metric.median (List.init 5 (fun _ -> time_batch ~iters f))

let hierarchy ~lines =
  let store = Mem.Store.create ~words:(lines * Mem.Addr.words_per_line) in
  Mem.Hierarchy.create Mem.Params.icelake_like ~cores:2 ~store
    ~counters:(Simrt.Counter.create_set ())

let latency (o : Mem.Hierarchy.outcome) = o.Mem.Hierarchy.latency

(* L1-resident: 32 lines re-read by one core. *)
let read_hot () =
  let h = hierarchy ~lines:1024 in
  fun iters ->
    for i = 0 to iters - 1 do
      sink := !sink + latency (Mem.Hierarchy.read_line h ~core:0 (i land 31))
    done

(* Two cores writing one line in turn: every access is a coherence transfer. *)
let write_pingpong () =
  let h = hierarchy ~lines:1024 in
  fun iters ->
    for i = 0 to iters - 1 do
      sink := !sink + latency (Mem.Hierarchy.write_line h ~core:(i land 1) 7)
    done

(* A 2^17-line (8 MiB) stream, twice the L3: capacity misses throughout. *)
let read_cold () =
  let lines = 1 lsl 17 in
  let h = hierarchy ~lines in
  let next = ref 0 in
  fun iters ->
    for _ = 1 to iters do
      next := (!next + 7) land (lines - 1);
      sink := !sink + latency (Mem.Hierarchy.read_line h ~core:0 !next)
    done

(* Eager conflict probe: reader and writer victim masks of one access, over
   a map where 16 cores each hold a few hundred lines. *)
let conflict_probe () =
  let lines = 4096 in
  let cm = Machine.Conflict_map.create ~lines ~cores:16 () in
  for l = 0 to lines - 1 do
    if l land 3 = 0 then Machine.Conflict_map.add_reader cm ~core:(l land 15) l;
    if l land 7 = 1 then Machine.Conflict_map.add_writer cm ~core:(l land 15) l
  done;
  fun iters ->
    for i = 0 to iters - 1 do
      let l = i * 13 land (lines - 1) and core = i land 15 in
      sink :=
        !sink
        lor Machine.Conflict_map.readers_excl cm ~core l
        lor Machine.Conflict_map.writers_excl cm ~core l
    done

(* Discovery filling the 32-entry ALT; a fresh discovery every 32 records. *)
let alt_record () =
  let alt = Clear.Alt.create ~dir_set_of:(Mem.Params.dir_set_of Mem.Params.icelake_like) () in
  fun iters ->
    for i = 0 to iters - 1 do
      let k = i land 31 in
      if k = 0 then Clear.Alt.reset alt;
      match Clear.Alt.record alt (k * 17) ~written:(k land 1 = 0) with
      | `Ok -> incr sink
      | `Overflow -> ()
    done

(* 64 regions cycling through the 16-entry ERT: LRU replacement on every
   lookup. *)
let ert_lookup () =
  let ert = Clear.Ert.create () in
  fun iters ->
    for i = 0 to iters - 1 do
      sink := !sink + (Clear.Ert.lookup_or_insert ert ~pc:(i land 63)).Clear.Ert.pc
    done

(* Steady-state heap of 32 pending events, one per simulated core. *)
let event_queue () =
  let q = Simrt.Event_queue.create () in
  for c = 0 to 31 do
    Simrt.Event_queue.push q ~time:c c
  done;
  fun iters ->
    for i = 0 to iters - 1 do
      match Simrt.Event_queue.pop q with
      | Some (time, c) -> Simrt.Event_queue.push q ~time:(time + 1 + (i * 7 land 127)) c
      | None -> ()
    done

(* Word write then read, striding across a 1 MiW store's chunks. *)
let store_rw () =
  let words = 1 lsl 20 in
  let st = Mem.Store.create ~words in
  fun iters ->
    for i = 0 to iters - 1 do
      let a = i * 4099 land (words - 1) in
      Mem.Store.write st a i;
      sink := !sink + Mem.Store.read st a
    done

(* One speculative access: read-set insert, every fourth a write with a
   buffered store, then a forwarding lookup; a fresh attempt every 16. *)
let txn_access () =
  let tx = Machine.Txn.create () in
  fun iters ->
    for i = 0 to iters - 1 do
      let l = i land 15 in
      if l = 0 then Machine.Txn.start tx;
      Machine.Txn.read_line tx l;
      if i land 3 = 0 then begin
        Machine.Txn.write_line tx l;
        Machine.Txn.buffer_store tx (l * Mem.Addr.words_per_line) i
      end;
      match Machine.Txn.forwarded tx (l * Mem.Addr.words_per_line) with
      | Some v -> sink := !sink + v
      | None -> ()
    done

let all =
  [
    ("kernel.mem.hierarchy.read_hot_ns", 400_000, read_hot);
    ("kernel.mem.hierarchy.write_pingpong_ns", 200_000, write_pingpong);
    ("kernel.mem.hierarchy.read_cold_ns", 200_000, read_cold);
    ("kernel.machine.conflict_map.probe_ns", 1_000_000, conflict_probe);
    ("kernel.clear.alt.record_ns", 400_000, alt_record);
    ("kernel.clear.ert.lookup_ns", 1_000_000, ert_lookup);
    ("kernel.simrt.event_queue.push_pop_ns", 1_000_000, event_queue);
    ("kernel.mem.store.rw_ns", 1_000_000, store_rw);
    ("kernel.machine.txn.access_ns", 1_000_000, txn_access);
  ]

(* [scale] divides every batch (quick mode). *)
let run ~scale =
  List.map (fun (name, iters, make) -> (name, ns_per_call ~iters:(max 1 (iters / scale)) make)) all
