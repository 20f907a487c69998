(* Tests for the memory substrate: addresses, backing store, caches,
   directory and hierarchy. *)

module Addr = Mem.Addr
module Store = Mem.Store
module Cache = Mem.Cache
module Params = Mem.Params
module Directory = Mem.Directory
module Hierarchy = Mem.Hierarchy
module Counter = Simrt.Counter

(* ------------------------------------------------------------------ *)
(* Addr *)

let test_addr_arithmetic () =
  Alcotest.(check int) "line of 0" 0 (Addr.line_of 0);
  Alcotest.(check int) "line of 7" 0 (Addr.line_of 7);
  Alcotest.(check int) "line of 8" 1 (Addr.line_of 8);
  Alcotest.(check int) "line base" 16 (Addr.line_base 2);
  Alcotest.(check int) "offset" 5 (Addr.line_offset 13);
  Alcotest.(check bool) "same line" true (Addr.same_line 8 15);
  Alcotest.(check bool) "different line" false (Addr.same_line 7 8)

let prop_line_roundtrip =
  QCheck.Test.make ~name:"line_base/line_of roundtrip" ~count:300
    QCheck.(int_range 0 1_000_000)
    (fun a -> Addr.line_base (Addr.line_of a) + Addr.line_offset a = a)

(* ------------------------------------------------------------------ *)
(* Store *)

let test_store_rw () =
  let s = Store.create ~words:64 in
  Store.write s 10 99;
  Alcotest.(check int) "read back" 99 (Store.read s 10);
  Alcotest.(check int) "zero init" 0 (Store.read s 11);
  Store.fill s 20 ~len:4 7;
  Alcotest.(check int) "fill start" 7 (Store.read s 20);
  Alcotest.(check int) "fill end" 7 (Store.read s 23);
  Alcotest.(check int) "fill stops" 0 (Store.read s 24)

let test_store_bounds () =
  let s = Store.create ~words:8 in
  Alcotest.check_raises "read oob"
    (Invalid_argument "Store.read: address 8 out of bounds") (fun () -> ignore (Store.read s 8));
  Alcotest.check_raises "write negative"
    (Invalid_argument "Store.write: address -1 out of bounds") (fun () -> Store.write s (-1) 0)

(* [release] gives back only owned chunks: a snapshot taken before it reads
   what it froze even after the page pool has handed the store's chunks to
   another store, which overwrote them. *)
let test_store_release_keeps_snapshots () =
  let words = 4 * 4096 in
  let s = Store.create ~words in
  for a = 0 to words - 1 do
    Store.write s a (a + 1)
  done;
  let img = Store.snapshot s in
  let frozen = Store.image_to_array img in
  (* Copy-on-write: chunk 0 is owned again, the other three stay shared. *)
  for a = 0 to 4095 do
    Store.write s a (-a)
  done;
  Store.release s;
  Alcotest.(check int) "a released store reads zeros" 0 (Store.read s 5);
  let t = Store.create ~words in
  for a = 0 to words - 1 do
    Store.write t a 7
  done;
  Alcotest.(check bool) "snapshot reads what it froze" true (Store.image_to_array img = frozen);
  Alcotest.(check int) "the recycled chunk reads its new store's words" 7 (Store.read t 5)

(* ------------------------------------------------------------------ *)
(* Cache *)

let test_cache_hit_miss () =
  let c = Cache.create ~sets:4 ~ways:2 in
  Alcotest.(check bool) "miss" false (Cache.touch c 12);
  Alcotest.(check int) "insert into empty" (-1) (Cache.insert c 12);
  Alcotest.(check bool) "hit" true (Cache.touch c 12);
  Alcotest.(check bool) "mem" true (Cache.mem c 12)

let test_cache_lru_eviction () =
  let c = Cache.create ~sets:1 ~ways:2 in
  ignore (Cache.insert c 1);
  ignore (Cache.insert c 2);
  (* touch 1 so 2 becomes LRU *)
  ignore (Cache.touch c 1);
  Alcotest.(check int) "evicts LRU" 2 (Cache.insert c 3);
  Alcotest.(check bool) "1 survives" true (Cache.mem c 1)

let test_cache_invalidate () =
  let c = Cache.create ~sets:2 ~ways:2 in
  ignore (Cache.insert c 4);
  Alcotest.(check bool) "present" true (Cache.invalidate c 4);
  Alcotest.(check bool) "absent now" false (Cache.mem c 4);
  Alcotest.(check bool) "absent invalidate" false (Cache.invalidate c 4)

(* A set keeps its lines in recency order: [touch] and [insert] refresh a
   line, [mem] does not, the victim is the least recently used line and an
   invalidated way is refilled before anything is evicted. *)
let test_cache_recency_order () =
  let c = Cache.create ~sets:1 ~ways:3 in
  List.iter (fun l -> Alcotest.(check int) "fills an empty way" (-1) (Cache.insert c l)) [ 1; 2; 3 ];
  Alcotest.(check bool) "touch 1" true (Cache.touch c 1);
  Alcotest.(check bool) "mem 2" true (Cache.mem c 2);
  Alcotest.(check int) "evicts 2, untouched by mem" 2 (Cache.insert c 4);
  Alcotest.(check bool) "invalidate 3" true (Cache.invalidate c 3);
  Alcotest.(check int) "refills the freed way" (-1) (Cache.insert c 5);
  let order = ref [] in
  Cache.iter c (fun l -> order := l :: !order);
  Alcotest.(check (list int)) "most recently used first" [ 5; 4; 1 ] (List.rev !order)

let test_cache_would_fit () =
  let c = Cache.create ~sets:2 ~ways:2 in
  (* lines 0,2,4 all map to set 0 — three in a 2-way set do not fit *)
  Alcotest.(check bool) "fits" true (Cache.would_fit c [ 0; 2; 1 ]);
  Alcotest.(check bool) "does not fit" false (Cache.would_fit c [ 0; 2; 4 ])

let test_cache_reinsert_no_evict () =
  let c = Cache.create ~sets:1 ~ways:2 in
  ignore (Cache.insert c 1);
  ignore (Cache.insert c 2);
  Alcotest.(check int) "reinsert hits" (-1) (Cache.insert c 1)

let prop_cache_within_ways_no_eviction =
  QCheck.Test.make ~name:"inserting <= ways distinct lines of one set never evicts" ~count:200
    QCheck.(int_range 1 8)
    (fun ways ->
      let sets = 4 in
      let c = Cache.create ~sets ~ways in
      (* lines i*sets all map to set 0 *)
      List.for_all
        (fun i -> Cache.insert c (i * sets) = -1)
        (List.init ways (fun i -> i)))

let test_cache_geometry_validation () =
  Alcotest.check_raises "non power of two"
    (Invalid_argument "Cache.create: sets must be a positive power of two") (fun () ->
      ignore (Cache.create ~sets:3 ~ways:1))

(* The flat one-array tag store the paged cache replaced, kept as its
   reference model. *)
module Flat_cache = struct
  type t = { sets : int; ways : int; tags : int array; age : int array; mutable tick : int }

  let create ~sets ~ways =
    { sets; ways; tags = Array.make (sets * ways) (-1); age = Array.make (sets * ways) 0; tick = 0 }

  let base t line = (line land (t.sets - 1)) * t.ways

  let find_way t line =
    let b = base t line in
    let rec loop w = if w = t.ways then -1 else if t.tags.(b + w) = line then b + w else loop (w + 1) in
    loop 0

  let bump t i =
    t.tick <- t.tick + 1;
    t.age.(i) <- t.tick

  let mem t line = find_way t line >= 0

  let touch t line =
    let i = find_way t line in
    if i >= 0 then bump t i;
    i >= 0

  let insert t line =
    let i = find_way t line in
    if i >= 0 then begin
      bump t i;
      -1
    end
    else begin
      let b = base t line in
      let victim = ref b and found_empty = ref false in
      for i = b to b + t.ways - 1 do
        if (not !found_empty) && t.tags.(i) = -1 then begin
          victim := i;
          found_empty := true
        end
        else if (not !found_empty) && t.age.(i) < t.age.(!victim) then victim := i
      done;
      let evicted = t.tags.(!victim) in
      t.tags.(!victim) <- line;
      bump t !victim;
      evicted
    end

  let invalidate t line =
    let i = find_way t line in
    if i >= 0 then begin
      t.tags.(i) <- -1;
      t.age.(i) <- 0
    end;
    i >= 0

  (* Each set's lines most recently used first: ages are unique. *)
  let iter t f =
    for s = 0 to t.sets - 1 do
      List.init t.ways (fun w -> (s * t.ways) + w)
      |> List.filter (fun i -> t.tags.(i) <> -1)
      |> List.sort (fun i j -> compare t.age.(j) t.age.(i))
      |> List.iter (fun i -> f t.tags.(i))
    done

  let clear t =
    Array.fill t.tags 0 (Array.length t.tags) (-1);
    Array.fill t.age 0 (Array.length t.age) 0;
    t.tick <- 0
end

let resident iter c =
  let acc = ref [] in
  iter c (fun l -> acc := l :: !acc);
  List.rev !acc

(* [clear] gives the cache's pages back: the cleared cache reads empty, and
   a cache built next reuses the page holding none of the old tags. *)
let test_cache_clear_recycles () =
  let a = Cache.create ~sets:4 ~ways:2 in
  List.iter (fun l -> ignore (Cache.insert a l : Addr.line)) [ 1; 2; 5 ];
  Cache.clear a;
  let b = Cache.create ~sets:4 ~ways:2 in
  ignore (Cache.insert b 3 : Addr.line);
  Alcotest.(check (list int)) "cleared cache is empty" [] (resident Cache.iter a);
  Alcotest.(check (list int)) "new cache holds only its line" [ 3 ] (resident Cache.iter b);
  Alcotest.(check bool) "old line misses" false (Cache.touch b 5)

(* Random op sequences over a handful of sets spread across the cache, each
   hit by up to twice its ways in distinct lines: hits, fills, LRU
   evictions and invalidations on sets in several pages. The resident
   lines must match in each set's recency order, which the reference keeps
   as ages. *)
let prop_cache_matches_flat =
  let gen =
    QCheck.Gen.(
      oneofl [ 1; 4; 64; 256; 1024 ] >>= fun sets ->
      int_range 1 16 >>= fun ways ->
      list_repeat 6 (int_bound (sets - 1)) >>= fun pool ->
      list_size (int_range 1 400) (triple (int_bound 99) (int_bound 5) (int_bound (2 * ways)))
      >|= fun ops -> (sets, ways, Array.of_list pool, ops))
  in
  let print (sets, ways, pool, ops) =
    Printf.sprintf "sets=%d ways=%d pool=[%s] ops=%d" sets ways
      (String.concat ";" (Array.to_list (Array.map string_of_int pool)))
      (List.length ops)
  in
  QCheck.Test.make ~name:"paged cache matches the flat reference" ~count:300 (QCheck.make ~print gen)
    (fun (sets, ways, pool, ops) ->
      let c = Cache.create ~sets ~ways and r = Flat_cache.create ~sets ~ways in
      List.for_all
        (fun (kind, si, k) ->
          let line = pool.(si) + (sets * k) in
          if kind < 30 then Cache.touch c line = Flat_cache.touch r line
          else if kind < 75 then Cache.insert c line = Flat_cache.insert r line
          else if kind < 85 then Cache.invalidate c line = Flat_cache.invalidate r line
          else if kind < 99 then Cache.mem c line = Flat_cache.mem r line
          else begin
            Cache.clear c;
            Flat_cache.clear r;
            true
          end)
        ops
      && resident Cache.iter c = resident Flat_cache.iter r)

(* ------------------------------------------------------------------ *)
(* Params *)

let test_params_latency_monotonic () =
  let p = Params.icelake_like in
  let l1 = Params.load_latency p ~level:`L1 in
  let l2 = Params.load_latency p ~level:`L2 in
  let l3 = Params.load_latency p ~level:`L3 in
  let mem = Params.load_latency p ~level:`Mem in
  Alcotest.(check bool) "monotonic" true (l1 < l2 && l2 < l3 && l3 < mem);
  Alcotest.(check int) "l1 is 1 cycle" 1 l1

let test_params_dir_set () =
  let p = Params.tiny in
  Alcotest.(check int) "wraps" (Params.dir_set_of p 0) (Params.dir_set_of p p.Params.dir_sets)

(* ------------------------------------------------------------------ *)
(* Directory *)

let test_directory_read_then_write () =
  let d = Directory.create ~cores:4 ~lines:128 in
  let c = Directory.read d ~core:0 100 in
  Alcotest.(check bool) "first read not remote" false (Directory.from_remote c);
  let _ = Directory.read d ~core:1 100 in
  Alcotest.(check bool) "both sharers" true (Directory.is_sharer d ~core:0 100 && Directory.is_sharer d ~core:1 100);
  let _ = Directory.write d ~core:2 100 in
  Alcotest.(check int) "invalidates sharers" 0b11 (Directory.invalidated d);
  Alcotest.(check int) "owner" 2 (Directory.owner d 100)

let test_directory_write_then_read_remote () =
  let d = Directory.create ~cores:2 ~lines:8 in
  let _ = Directory.write d ~core:0 5 in
  let c = Directory.read d ~core:1 5 in
  Alcotest.(check bool) "remote transfer" true (Directory.from_remote c);
  Alcotest.(check int) "owner downgraded" (-1) (Directory.owner d 5)

let test_directory_repeat_write_free () =
  let d = Directory.create ~cores:2 ~lines:8 in
  let _ = Directory.write d ~core:0 5 in
  let c = Directory.write d ~core:0 5 in
  Alcotest.(check int) "no messages" 0 (Directory.msgs c);
  Alcotest.(check int) "no invalidation" 0 (Directory.invalidated d)

let test_directory_locking () =
  let d = Directory.create ~cores:3 ~lines:8 in
  let _ = Directory.read d ~core:1 7 in
  Alcotest.(check int) "acquired" (-1) (Directory.lock d ~core:0 7);
  Alcotest.(check int) "lock invalidates" 0b10 (Directory.invalidated d);
  Alcotest.(check int) "held by 0" 0 (Directory.lock d ~core:2 7);
  Alcotest.(check int) "relock by owner" (-1) (Directory.lock d ~core:0 7);
  Alcotest.(check int) "relock is free" 0 (Directory.invalidated d);
  Directory.unlock d ~core:0 7;
  Alcotest.(check int) "unlocked" (-1) (Directory.locked_by d 7)

let test_directory_unlock_all () =
  let d = Directory.create ~cores:2 ~lines:8 in
  List.iter (fun l -> ignore (Directory.lock d ~core:0 l)) [ 3; 1; 2 ];
  Alcotest.(check (list int)) "locked list sorted" [ 1; 2; 3 ] (Directory.locked_lines d ~core:0);
  Directory.unlock_all d ~core:0;
  Alcotest.(check (list int)) "all released" [] (Directory.locked_lines d ~core:0);
  Alcotest.(check int) "entry unlocked" (-1) (Directory.locked_by d 1)

let test_directory_line_range () =
  let d = Directory.create ~cores:2 ~lines:16 in
  Alcotest.(check int) "far line reads untouched" (-1) (Directory.owner d (1 lsl 40));
  Alcotest.check_raises "far line rejected"
    (Invalid_argument (Printf.sprintf "Directory: line %d outside the addressable range" (1 lsl 40)))
    (fun () -> ignore (Directory.write d ~core:0 (1 lsl 40)));
  Alcotest.check_raises "negative line rejected"
    (Invalid_argument "Directory: line -1 outside the addressable range") (fun () ->
      ignore (Directory.lock d ~core:0 (-1)))

(* After [release] every line reads untouched, in the released directory
   and in the next one, which reuses its pages. *)
let test_directory_release () =
  let d = Directory.create ~cores:2 ~lines:16 in
  ignore (Directory.write d ~core:1 5 : Directory.coherence);
  ignore (Directory.lock d ~core:1 6 : int);
  Directory.release d;
  let e = Directory.create ~cores:2 ~lines:16 in
  ignore (Directory.read e ~core:0 9 : Directory.coherence);
  List.iter
    (fun (name, dir) ->
      Alcotest.(check int) (name ^ ": no owner") (-1) (Directory.owner dir 5);
      Alcotest.(check int) (name ^ ": unlocked") (-1) (Directory.locked_by dir 6);
      Alcotest.(check bool) (name ^ ": no sharer") false (Directory.is_sharer dir ~core:1 5))
    [ ("released", d); ("reused", e) ];
  Alcotest.(check bool) "new entry kept" true (Directory.is_sharer e ~core:0 9)

let test_directory_unlock_wrong_core () =
  let d = Directory.create ~cores:2 ~lines:16 in
  ignore (Directory.lock d ~core:0 9);
  Directory.unlock d ~core:1 9;
  Alcotest.(check int) "still held" 0 (Directory.locked_by d 9)

(* A hashtable-of-entries directory with the paged one's semantics: the
   reference model. Requests return (msgs, from_remote, invalidated mask). *)
module Ref_directory = struct
  type entry = { mutable owner : int; mutable sharers : int; mutable locker : int }

  type t = { cores : int; entries : (int, entry) Hashtbl.t; locked : (int * int, unit) Hashtbl.t }

  let create ~cores = { cores; entries = Hashtbl.create 64; locked = Hashtbl.create 16 }

  let entry t line =
    match Hashtbl.find_opt t.entries line with
    | Some e -> e
    | None ->
        let e = { owner = -1; sharers = 0; locker = -1 } in
        Hashtbl.add t.entries line e;
        e

  let peek t line =
    match Hashtbl.find_opt t.entries line with
    | Some e -> e
    | None -> { owner = -1; sharers = 0; locker = -1 }

  let bit c = 1 lsl c

  let read t ~core line =
    let e = entry t line in
    if e.owner = core || e.sharers land bit core <> 0 then (0, false, 0)
    else if e.owner >= 0 then begin
      e.sharers <- e.sharers lor bit e.owner lor bit core;
      e.owner <- -1;
      (3, true, 0)
    end
    else begin
      e.sharers <- e.sharers lor bit core;
      (2, false, 0)
    end

  let write t ~core line =
    let e = entry t line in
    if e.owner = core && e.sharers = 0 then (0, false, 0)
    else begin
      let inv = ref [] in
      if e.owner >= 0 && e.owner <> core then inv := [ e.owner ];
      for c = t.cores - 1 downto 0 do
        if c <> core && e.sharers land bit c <> 0 then inv := c :: !inv
      done;
      let from_remote = e.owner >= 0 && e.owner <> core in
      e.owner <- core;
      e.sharers <- 0;
      (2 + List.length !inv, from_remote, List.fold_left (fun m c -> m lor bit c) 0 !inv)
    end

  let drop_core t ~core line =
    match Hashtbl.find_opt t.entries line with
    | None -> ()
    | Some e ->
        if e.owner = core then e.owner <- -1;
        e.sharers <- e.sharers land lnot (bit core)

  (* -1 when acquired (with the invalidated mask), else the holder. The
     holder re-locking takes ownership back. *)
  let lock t ~core line =
    let e = entry t line in
    if e.locker = core then begin
      ignore (write t ~core line);
      (-1, 0)
    end
    else if e.locker >= 0 then (e.locker, 0)
    else begin
      let _, _, inv = write t ~core line in
      e.locker <- core;
      Hashtbl.replace t.locked (core, line) ();
      (-1, inv)
    end

  let unlock t ~core line =
    let e = peek t line in
    if e.locker = core then begin
      e.locker <- -1;
      Hashtbl.remove t.locked (core, line)
    end

  let locked_lines t ~core =
    Hashtbl.fold (fun (c, l) () acc -> if c = core then l :: acc else acc) t.locked []
    |> List.sort compare

  let unlock_all t ~core = List.iter (fun l -> unlock t ~core l) (locked_lines t ~core)
end

(* Random request sequences over lines on both sides of page boundaries,
   most of them beyond the initial one-page table, so pages are copied out
   of the shared empty page and the table grows mid-sequence. *)
let prop_directory_matches_reference =
  let cores = 4 in
  let boundary = [ 0; 1; 4095; 4096; 4097; 8191; 8192; 12_295; 40_000; 100_003 ] in
  let gen =
    QCheck.Gen.(
      list_size (int_range 1 300)
        (triple (int_bound 6) (int_bound (cores - 1))
           (oneof [ oneofl boundary; int_bound (5 * 4096) ])))
  in
  let print ops =
    String.concat " "
      (List.map (fun (k, c, l) -> Printf.sprintf "%d/%d/%d" k c l) ops)
  in
  QCheck.Test.make ~name:"paged directory matches the hashtable reference" ~count:300
    (QCheck.make ~print gen) (fun ops ->
      let d = Directory.create ~cores ~lines:16 and r = Ref_directory.create ~cores in
      let same_coh c (msgs, remote, _) = Directory.msgs c = msgs && Directory.from_remote c = remote in
      let same_line line =
        let e = Ref_directory.peek r line in
        Directory.owner d line = e.owner
        && Directory.locked_by d line = e.locker
        && List.for_all
             (fun core ->
               Directory.is_sharer d ~core line
               = (e.owner = core || e.sharers land (1 lsl core) <> 0))
             (List.init cores Fun.id)
      in
      List.for_all
        (fun (kind, core, line) ->
          let held = Directory.locked_by d line in
          (* The machine never reads or writes through a remote lock. *)
          let free = held < 0 || held = core in
          let ok =
            match kind with
            | 0 when free -> same_coh (Directory.read d ~core line) (Ref_directory.read r ~core line)
            | 1 when free ->
                let ((_, _, inv) as want) = Ref_directory.write r ~core line in
                same_coh (Directory.write d ~core line) want && Directory.invalidated d = inv
            | 2 ->
                let got = Directory.lock d ~core line in
                let want, inv = Ref_directory.lock r ~core line in
                got = want && (got >= 0 || Directory.invalidated d = inv)
            | 3 ->
                Directory.unlock d ~core line;
                Ref_directory.unlock r ~core line;
                true
            | 4 ->
                Directory.unlock_all d ~core;
                Ref_directory.unlock_all r ~core;
                true
            | 5 ->
                Directory.drop_core d ~core line;
                Ref_directory.drop_core r ~core line;
                true
            | _ -> true
          in
          ok && same_line line
          && List.for_all
               (fun c -> Directory.locked_lines d ~core:c = Ref_directory.locked_lines r ~core:c)
               (List.init cores Fun.id))
        ops)

(* ------------------------------------------------------------------ *)
(* Hierarchy *)

let make_hierarchy () =
  let store = Store.create ~words:(1 lsl 16) in
  let counters = Counter.create_set () in
  (Hierarchy.create Params.icelake_like ~cores:2 ~store ~counters, counters)

let test_hierarchy_latency_progression () =
  let h, _ = make_hierarchy () in
  let p = Hierarchy.params h in
  let first = Hierarchy.read_line h ~core:0 42 in
  (* A cold read pays the full miss path plus the directory messages. *)
  Alcotest.(check bool) "cold read costs at least a memory access" true
    (first.Hierarchy.latency >= Params.load_latency p ~level:`Mem);
  let second = Hierarchy.read_line h ~core:0 42 in
  Alcotest.(check int) "warm read from L1" (Params.load_latency p ~level:`L1)
    second.Hierarchy.latency

let test_hierarchy_remote_transfer () =
  let h, _ = make_hierarchy () in
  let _ = Hierarchy.write_line h ~core:0 42 in
  let remote = Hierarchy.read_line h ~core:1 42 in
  Alcotest.(check bool) "remote read dearer than L1" true
    (remote.Hierarchy.latency > Params.load_latency (Hierarchy.params h) ~level:`L1)

let test_hierarchy_write_invalidates_reader () =
  let h, _ = make_hierarchy () in
  let _ = Hierarchy.read_line h ~core:1 42 in
  let _ = Hierarchy.write_line h ~core:0 42 in
  Alcotest.(check bool) "reader's copy dropped" false (Cache.mem (Hierarchy.l1 h ~core:1) 42)

let test_hierarchy_lock_fast_path () =
  let h, _ = make_hierarchy () in
  (match Hierarchy.lock_line h ~core:0 42 with
  | `Acquired _ -> ()
  | `Held_by _ -> Alcotest.fail "lock should succeed");
  let read = Hierarchy.read_line h ~core:0 42 in
  Alcotest.(check int) "locked line hits at L1 cost"
    (Params.load_latency (Hierarchy.params h) ~level:`L1)
    read.Hierarchy.latency;
  (match Hierarchy.lock_line h ~core:1 42 with
  | `Held_by holder -> Alcotest.(check int) "holder" 0 holder
  | `Acquired _ -> Alcotest.fail "should be held");
  Alcotest.(check int) "unlock_all count" 1 (Hierarchy.unlock_all h ~core:0)

let test_hierarchy_remote_locked_access_rejected () =
  let h, _ = make_hierarchy () in
  ignore (Hierarchy.lock_line h ~core:0 42);
  Alcotest.check_raises "read through remote lock"
    (Invalid_argument "Hierarchy.read_line: line locked by another core") (fun () ->
      ignore (Hierarchy.read_line h ~core:1 42))

let test_hierarchy_eviction_reported () =
  (* Fill one L1 set beyond capacity and observe the victim. *)
  let store = Store.create ~words:(1 lsl 20) in
  let counters = Counter.create_set () in
  let h = Hierarchy.create Params.tiny ~cores:1 ~store ~counters in
  let p = Params.tiny in
  (* lines k * l1_sets all map to L1 set 0; tiny has 2 ways *)
  let line k = k * p.Params.l1_sets in
  let o1 = Hierarchy.read_line h ~core:0 (line 1) in
  let o2 = Hierarchy.read_line h ~core:0 (line 2) in
  Alcotest.(check (pair int int)) "no evictions yet" (-1, -1) (o1.Hierarchy.l1_victim, o2.Hierarchy.l1_victim);
  let o3 = Hierarchy.read_line h ~core:0 (line 3) in
  Alcotest.(check int) "LRU victim evicted" (line 1) o3.Hierarchy.l1_victim

let test_hierarchy_counters () =
  let h, counters = make_hierarchy () in
  let _ = Hierarchy.read_line h ~core:0 1 in
  let _ = Hierarchy.read_line h ~core:0 1 in
  Alcotest.(check int) "one memory access" 1 (Counter.get counters "mem_access");
  Alcotest.(check int) "one l1 hit" 1 (Counter.get counters "l1_hit")

(* Hierarchy counters are resolved into cells at create: they must keep
   counting after a reset and read back by name, alone or merged. *)
let test_hierarchy_counter_cells () =
  let h, counters = make_hierarchy () in
  ignore (Hierarchy.read_line h ~core:0 1);
  Counter.reset counters;
  Alcotest.(check int) "reset zeroes" 0 (Counter.get counters "mem_access");
  ignore (Hierarchy.read_line h ~core:0 1);
  Alcotest.(check int) "cell survives reset" 1 (Counter.get counters "l1_hit");
  let total = Counter.create_set () in
  Counter.merge_into ~dst:total counters;
  Counter.merge_into ~dst:total counters;
  Alcotest.(check int) "merged by name" 2 (Counter.get total "l1_hit");
  ignore (Hierarchy.read_line h ~core:0 2);
  Alcotest.(check int) "still counting" 1 (Counter.get counters "mem_access");
  Alcotest.(check int) "merge copied values, not cells" 0 (Counter.get total "mem_access")

(* The access path skips a core's L1 and L2 probes when the directory says
   the core held no copy. That is exact only if the private caches hold
   nothing the directory does not list the core for: after any script of
   reads, writes, locks, unlocks and flushes, every line in a core's L1 or
   L2 names that core as owner or sharer. The tiny geometry and a small
   line range keep evictions from both levels frequent. *)
type hier_op = H_read of int * int | H_write of int * int | H_lock of int * int | H_unlock_all of int | H_flush of int

let hier_cores = 3

let hier_op_gen =
  let open QCheck.Gen in
  let core = int_range 0 (hier_cores - 1) and line = int_range 0 95 in
  frequency
    [
      (5, map2 (fun c l -> H_read (c, l)) core line);
      (4, map2 (fun c l -> H_write (c, l)) core line);
      (2, map2 (fun c l -> H_lock (c, l)) core line);
      (1, map (fun c -> H_unlock_all c) core);
      (1, map (fun c -> H_flush c) core);
    ]

let show_hier_op = function
  | H_read (c, l) -> Printf.sprintf "read %d %d" c l
  | H_write (c, l) -> Printf.sprintf "write %d %d" c l
  | H_lock (c, l) -> Printf.sprintf "lock %d %d" c l
  | H_unlock_all c -> Printf.sprintf "unlock_all %d" c
  | H_flush c -> Printf.sprintf "flush %d" c

let prop_private_lines_listed =
  QCheck.Test.make ~name:"private cache lines are listed in the directory" ~count:300
    (QCheck.make ~print:(QCheck.Print.list show_hier_op) QCheck.Gen.(list_size (int_range 0 150) hier_op_gen))
    (fun script ->
      let store = Store.create ~words:(1 lsl 12) in
      let h = Hierarchy.create Params.tiny ~cores:hier_cores ~store ~counters:(Counter.create_set ()) in
      let dir = Hierarchy.directory h in
      let listed () =
        List.for_all
          (fun core ->
            let ok = ref true in
            let check line = if not (Directory.is_sharer dir ~core line) then ok := false in
            Cache.iter (Hierarchy.l1 h ~core) check;
            Cache.iter (Hierarchy.l2 h ~core) check;
            !ok)
          (List.init hier_cores Fun.id)
      in
      (* Reads and writes through another core's lock are refused. *)
      let free_for core line = let holder = Hierarchy.locked_by h line in holder < 0 || holder = core in
      List.for_all
        (fun op ->
          (match op with
          | H_read (core, line) -> if free_for core line then ignore (Hierarchy.read_line h ~core line)
          | H_write (core, line) -> if free_for core line then ignore (Hierarchy.write_line h ~core line)
          | H_lock (core, line) -> ignore (Hierarchy.lock_line h ~core line)
          | H_unlock_all core -> ignore (Hierarchy.unlock_all h ~core : int)
          | H_flush core -> Hierarchy.flush_core h ~core);
          listed ())
        script)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "mem"
    [
      ( "addr",
        [ Alcotest.test_case "arithmetic" `Quick test_addr_arithmetic ]
        @ qsuite [ prop_line_roundtrip ] );
      ( "store",
        [
          Alcotest.test_case "read/write/fill" `Quick test_store_rw;
          Alcotest.test_case "bounds" `Quick test_store_bounds;
          Alcotest.test_case "release keeps snapshots" `Quick test_store_release_keeps_snapshots;
        ] );
      ( "cache",
        [
          Alcotest.test_case "hit/miss" `Quick test_cache_hit_miss;
          Alcotest.test_case "LRU eviction" `Quick test_cache_lru_eviction;
          Alcotest.test_case "recency order" `Quick test_cache_recency_order;
          Alcotest.test_case "invalidate" `Quick test_cache_invalidate;
          Alcotest.test_case "would_fit" `Quick test_cache_would_fit;
          Alcotest.test_case "reinsert" `Quick test_cache_reinsert_no_evict;
          Alcotest.test_case "geometry validation" `Quick test_cache_geometry_validation;
          Alcotest.test_case "clear recycles pages" `Quick test_cache_clear_recycles;
        ]
        @ qsuite [ prop_cache_within_ways_no_eviction; prop_cache_matches_flat ] );
      ( "params",
        [
          Alcotest.test_case "latency progression" `Quick test_params_latency_monotonic;
          Alcotest.test_case "dir set wraps" `Quick test_params_dir_set;
        ] );
      ( "directory",
        [
          Alcotest.test_case "read then write" `Quick test_directory_read_then_write;
          Alcotest.test_case "remote ownership read" `Quick test_directory_write_then_read_remote;
          Alcotest.test_case "repeat write free" `Quick test_directory_repeat_write_free;
          Alcotest.test_case "locking" `Quick test_directory_locking;
          Alcotest.test_case "unlock_all" `Quick test_directory_unlock_all;
          Alcotest.test_case "unlock wrong core" `Quick test_directory_unlock_wrong_core;
          Alcotest.test_case "line range" `Quick test_directory_line_range;
          Alcotest.test_case "release" `Quick test_directory_release;
        ]
        @ qsuite [ prop_directory_matches_reference ] );
      ( "hierarchy",
        [
          Alcotest.test_case "latency progression" `Quick test_hierarchy_latency_progression;
          Alcotest.test_case "remote transfer" `Quick test_hierarchy_remote_transfer;
          Alcotest.test_case "write invalidates" `Quick test_hierarchy_write_invalidates_reader;
          Alcotest.test_case "lock fast path" `Quick test_hierarchy_lock_fast_path;
          Alcotest.test_case "remote locked access" `Quick test_hierarchy_remote_locked_access_rejected;
          Alcotest.test_case "eviction reported" `Quick test_hierarchy_eviction_reported;
          Alcotest.test_case "counters" `Quick test_hierarchy_counters;
          Alcotest.test_case "counter cells" `Quick test_hierarchy_counter_cells;
        ]
        @ qsuite [ prop_private_lines_listed ] );
    ]
