type divergence =
  | Store_mismatch of {
      witness : Witness.header;
      index : int;
      expected : (Mem.Addr.t * int) option;
      got : (Mem.Addr.t * int) option;
    }
  | Memory_mismatch of { addr : Mem.Addr.t; replayed : int; simulated : int; differing : int }
  | Replay_error of { witness : Witness.header; message : string }

let pp_entry fmt = function
  | None -> Format.fprintf fmt "(none)"
  | Some (a, v) -> Format.fprintf fmt "M[%d]=%d" a v

let pp_divergence fmt = function
  | Store_mismatch { witness; index; expected; got } ->
      Format.fprintf fmt
        "@[<v2>replay divergence in %a:@ store #%d: simulated %a, replayed %a@]" Witness.pp_header
        witness index pp_entry expected pp_entry got
  | Memory_mismatch { addr; replayed; simulated; differing } ->
      Format.fprintf fmt
        "final memory differs in %d word(s); first at M[%d]: replayed %d, simulated %d" differing
        addr replayed simulated
  | Replay_error { witness; message } ->
      Format.fprintf fmt "replay of %a faulted: %s" Witness.pp_header witness message

(* ------------------------------------------------------------------ *)
(* Windowed cursor: the incremental face of the oracle. The replayed
   memory R is the only state carried between steps — a replayed witness is
   folded into it and discarded, so streaming replay holds O(touched words),
   not O(history). It is kept one of two ways:

   - from an image ([start]): a rolling copy-on-write store of its own;
   - on the simulation's live store S ([attach]): R = S except at the words
     in [overlay], which maps each address where they differ to R's value.
     An observer on S files the old value of every word the simulation is
     about to change (unless already filed); a replayed write drops the
     entry when it agrees with S. Entries live from a simulated write to
     the replay of the commit that made it, so the overlay stays tiny and a
     replayed load reads S, which the simulation has just brought into the
     cache, instead of missing on a second copy of memory.

   The register file and the load/store callbacks are built once per
   cursor; replaying a witness allocates nothing unless it diverges. [run]
   below is a thin loop over the cursor. *)

type cursor = {
  mem : Mem.Store.t;  (* R itself, or S when [live] *)
  live : bool;
  overlay : Intmap.t;
  regs : int array;
  mutable buf : Capbuf.t;  (* the witness being replayed *)
  mutable pos : int;  (* stores replayed so far *)
  (* First store-log mismatch of the current witness, -1 when none; the
     replayed entry is kept as two ints. *)
  mutable bad : int;
  mutable bad_addr : int;
  mutable bad_value : int;
  mutable dead : bool;  (* diverged: stop following S *)
  mutable load : int -> int;
  mutable store : int -> int -> unit;
}

let out_of_bounds what a = raise (Isa.Interp.Error (Printf.sprintf "%s out-of-bounds address %d" what a))

let read cur a =
  if cur.live then
    let s = Intmap.slot cur.overlay a in
    if s >= 0 then Intmap.value cur.overlay s else Mem.Store.read cur.mem a
  else Mem.Store.read cur.mem a

let write cur a v =
  if not cur.live then Mem.Store.write cur.mem a v
  else if Mem.Store.read cur.mem a = v then Intmap.remove cur.overlay a
  else Intmap.replace cur.overlay a v

(* Stores are applied as they execute (the body may read back its own
   writes) and compared against the simulated log on the fly. The first
   mismatch is noted, not raised: a body that goes on to fault must still
   report the fault, as a replay that compared logs after the run would. *)
let on_store cur a v =
  if a < 0 || a >= Mem.Store.size cur.mem then out_of_bounds "store to" a;
  write cur a v;
  let i = cur.pos in
  if
    cur.bad < 0
    && (i >= Capbuf.n_stores cur.buf
       || Capbuf.store_addr cur.buf i <> a
       || Capbuf.store_value cur.buf i <> v)
  then begin
    cur.bad <- i;
    cur.bad_addr <- a;
    cur.bad_value <- v
  end;
  cur.pos <- i + 1

let on_load cur a =
  if a < 0 || a >= Mem.Store.size cur.mem then out_of_bounds "load from" a;
  read cur a

let cursor ~live mem =
  let cur =
    {
      mem;
      live;
      overlay = Intmap.create ();
      regs = Array.make Isa.Instr.num_regs 0;
      buf = Capbuf.create ();
      pos = 0;
      bad = -1;
      bad_addr = 0;
      bad_value = 0;
      dead = false;
      load = (fun _ -> 0);
      store = (fun _ _ -> ());
    }
  in
  cur.load <- (fun a -> on_load cur a);
  cur.store <- (fun a v -> on_store cur a v);
  cur

(* The replay store shares every untouched chunk with [initial] — and,
   transitively, with the simulation's [final] image — so the closing
   comparison only scans chunks one of the two sides actually wrote. *)
let start ~initial = cursor ~live:false (Mem.Store.of_snapshot initial)

let attach store =
  let cur = cursor ~live:true store in
  let file a _ = if not cur.dead then Intmap.add cur.overlay a (Mem.Store.read store a) in
  Mem.Store.set_observer store (Some file);
  cur

let expected_at buf i =
  if i < Capbuf.n_stores buf then Some (Capbuf.store_addr buf i, Capbuf.store_value buf i)
  else None

let replay cur buf =
  cur.buf <- buf;
  cur.pos <- 0;
  cur.bad <- -1;
  Capbuf.fill_regs buf cur.regs;
  match Isa.Interp.exec ~regs:cur.regs (Capbuf.ar buf) ~load:cur.load ~store:cur.store with
  | exception Isa.Interp.Error message -> Error (Replay_error { witness = Capbuf.header buf; message })
  | () ->
      if cur.bad >= 0 then
        Error
          (Store_mismatch
             {
               witness = Capbuf.header buf;
               index = cur.bad;
               expected = expected_at buf cur.bad;
               got = Some (cur.bad_addr, cur.bad_value);
             })
      else if cur.pos < Capbuf.n_stores buf then
        Error
          (Store_mismatch
             { witness = Capbuf.header buf; index = cur.pos; expected = expected_at buf cur.pos; got = None })
      else Ok ()

let step cur buf =
  match replay cur buf with
  | Ok () as ok -> ok
  | Error _ as e ->
      cur.dead <- true;
      e

let apply_driver_writes cur stores = List.iter (fun (a, v) -> write cur a v) stores

(* Live: R and S differ only in the overlay, and S is [final]. *)
let finish_live cur ~final =
  let first = ref max_int and replayed = ref 0 and simulated = ref 0 and differing = ref 0 in
  Intmap.iter cur.overlay (fun a v ->
      let s = Mem.Store.image_read final a in
      if v <> s then begin
        incr differing;
        if a < !first then begin
          first := a;
          replayed := v;
          simulated := s
        end
      end);
  if !differing = 0 then Ok ()
  else
    Error
      (Memory_mismatch
         { addr = !first; replayed = !replayed; simulated = !simulated; differing = !differing })

let finish cur ~final =
  let words = Mem.Store.size cur.mem in
  if words <> Mem.Store.image_words final then
    Error
      (Memory_mismatch
         { addr = 0; replayed = words; simulated = Mem.Store.image_words final; differing = -1 })
  else if cur.live then finish_live cur ~final
  else
    match Mem.Store.image_diff (Mem.Store.snapshot cur.mem) final with
    | None -> Ok ()
    | Some (addr, replayed, simulated, differing) ->
        Error (Memory_mismatch { addr; replayed; simulated; differing })
