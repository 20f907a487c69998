let dir = "_cache"

let build_id_lazy = lazy (Digest.to_hex (Digest.file Sys.executable_name))

let build_id () = Lazy.force build_id_lazy

(* One shard per (configuration, workload, seed) simulation. The digest
   covers the fully seeded configuration (so any parameter change misses),
   the workload name, the seed, and the executable's own digest. *)
let shard_path (cfg : Machine.Config.t) ~workload ~seed =
  let cfg = Machine.Config.with_seed cfg seed in
  let key =
    Digest.to_hex (Digest.string (Marshal.to_string (cfg, workload, seed, build_id ()) []))
  in
  Filename.concat dir ("shard-" ^ key ^ ".bin")

(* The first Marshal item is a plain string, so it deserialises safely even
   when the rest of the file was written by a different build of the
   executable (whose in-memory representation of [Stats.t] may differ). *)
let read_build_id path =
  match In_channel.with_open_bin path (fun ic -> (Marshal.from_channel ic : string)) with
  | id -> Some id
  | exception _ -> None

(* Open-system runs never touch the cache: a shard holds only Stats.t, so a
   hit would silently drop the request-lifecycle data (latency percentiles)
   the run exists to produce. *)
let cacheable (cfg : Machine.Config.t) = cfg.Machine.Config.openloop = None

let load_shard cfg ~workload ~seed : Machine.Stats.t option =
  if not (cacheable cfg) then None
  else
  let path = shard_path cfg ~workload ~seed in
  if not (Sys.file_exists path) then None
  else
    match
      In_channel.with_open_bin path (fun ic ->
          let id : string = Marshal.from_channel ic in
          if id <> build_id () then None else Some (Marshal.from_channel ic : Machine.Stats.t))
    with
    | s -> s
    | exception _ -> None

let is_cache_entry name =
  (let is_prefix p = String.length name > String.length p && String.sub name 0 (String.length p) = p in
   (* legacy whole-suite entries are cleaned up alongside shards *)
   is_prefix "shard-" || is_prefix "suite-")
  && Filename.check_suffix name ".bin"

let prune_stale () =
  match Sys.readdir dir with
  | exception Sys_error _ -> ()
  | names ->
      Array.iter
        (fun name ->
          if is_cache_entry name then begin
            let p = Filename.concat dir name in
            match read_build_id p with
            | Some id when id = build_id () -> ()
            | Some _ | None -> ( try Sys.remove p with Sys_error _ -> ())
          end)
        names

let save_shard cfg ~workload ~seed (s : Machine.Stats.t) =
  if not (cacheable cfg) then ()
  else begin
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  let path = shard_path cfg ~workload ~seed in
  let tmp = path ^ ".tmp" in
  Out_channel.with_open_bin tmp (fun oc ->
      Marshal.to_channel oc (build_id ()) [];
      Marshal.to_channel oc s []);
  Sys.rename tmp path
  end

let clear () =
  match Sys.readdir dir with
  | exception Sys_error _ -> 0
  | names ->
      Array.fold_left
        (fun n name ->
          if is_cache_entry name then (
            match Sys.remove (Filename.concat dir name) with
            | () -> n + 1
            | exception Sys_error _ -> n)
          else n)
        0 names
