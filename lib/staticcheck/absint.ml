module I = Isa.Instr

type bound = Finite of int | Unbounded

let bound_le b k = match b with Finite n -> n <= k | Unbounded -> false

let pp_bound ppf = function
  | Finite n -> Format.fprintf ppf "%d" n
  | Unbounded -> Format.fprintf ppf "oo"

let bound_to_string b = Format.asprintf "%a" pp_bound b

(* One memory-access site's set of word addresses, in a form the gate can
   re-concretise under a witness's initial registers. *)
type component =
  | Cwords of { lo : int; hi : int }  (** absolute word addresses in [lo, hi] *)
  | Crel of { reg : I.reg; lo : int; hi : int }
      (** word addresses in [init(reg) + lo, init(reg) + hi] *)
  | Cregion of { lo : int; hi : int; region : string }
      (** the interval domain lost the address (an indirection), but the
          site's region tag has a declared extent: word addresses in
          [lo, hi], the region's whole extent *)
  | Cany  (** statically unbounded: any address *)

type site = {
  index : int;
  written : bool;
  region : string;
  component : component;
  in_cycle : bool;
}

type summary = {
  name : string;
  body : I.t array;
  regions : (string * (int * int)) list;
  reachable : bool array;
  in_cycle : bool array;
  in_states : Value.t array array;
  sites : site list;
  read_lines : bound;
  write_lines : bound;
  footprint_lines : bound;
  store_execs : bound;
  min_store_execs : int;
  max_instr_execs : bound;
  indirections : string list;
  must_indirect : bool;
  falls_off_end : bool;
}

let nregs = I.num_regs

let value_of st = function
  | I.Reg r -> st.(r)
  | I.Imm k -> Value.const_ k

(* Successor edges with their outgoing states. Out-of-range branch targets
   (possible on raw, unvalidated bodies) contribute no edge; the lint pass
   reports them separately. *)
let step (n : int) (st : Value.t array) i instr =
  let out = Array.copy st in
  let succ j st = if j >= 0 && j <= n then [ (j, st) ] else [] in
  match (instr : I.t) with
  | Ld { dst; _ } ->
      out.(dst) <- Value.top;
      succ (i + 1) out
  | St _ -> succ (i + 1) out
  | Mov { dst; src } ->
      out.(dst) <- value_of st src;
      succ (i + 1) out
  | Binop { op; dst; a; b } ->
      out.(dst) <- Value.binop op (value_of st a) (value_of st b);
      succ (i + 1) out
  | Br { cond; a; b; target } ->
      let va = value_of st a and vb = value_of st b in
      let apply st (cond : I.cond) =
        let va', vb' = Value.refine cond va vb in
        let st = Array.copy st in
        (match a with I.Reg r -> st.(r) <- va' | I.Imm _ -> ());
        (match b with I.Reg r -> st.(r) <- vb' | I.Imm _ -> ());
        st
      in
      (if target >= 0 && target <= n then succ target (apply out cond) else [])
      @ succ (i + 1) (apply out (Value.negate_cond cond))
  | Jmp target -> succ target out
  | Nop -> succ (i + 1) out
  | Halt -> []

(* Merge word-interval lists and bound the number of distinct cachelines an
   access window can touch. Relative windows pay one extra straddle line
   because their alignment is unknown. *)
let wpl = Mem.Addr.words_per_line

let merge_intervals ivs =
  let sorted = List.sort compare ivs in
  List.fold_left
    (fun acc (lo, hi) ->
      match acc with
      | (plo, phi) :: rest when lo <= phi + 1 -> (plo, max phi hi) :: rest
      | _ -> (lo, hi) :: acc)
    [] sorted

let lines_of_components comps =
  let abs, rel, any =
    List.fold_left
      (fun (abs, rel, any) (c, in_cycle) ->
        match c with
        | Cwords { lo; hi } -> ((lo, hi) :: abs, rel, any)
        | Crel { reg; lo; hi } -> (abs, (reg, (lo, hi)) :: rel, any)
        | Cregion { lo; hi; _ } ->
            (* Acyclic: one execution, one line. In a cycle: a fresh line per
               iteration, but never outside the region's extent. *)
            if in_cycle then ((lo, hi) :: abs, rel, any) else (abs, rel, any + 1)
        | Cany -> (abs, rel, any + 1))
      ([], [], 0) comps
  in
  let abs_lines =
    List.fold_left
      (fun n (lo, hi) -> n + (Mem.Addr.line_of hi - Mem.Addr.line_of lo) + 1)
      0 (merge_intervals abs)
  in
  let rel_lines =
    let regs = List.sort_uniq compare (List.map fst rel) in
    List.fold_left
      (fun n reg ->
        let ivs = List.filter_map (fun (r, iv) -> if r = reg then Some iv else None) rel in
        List.fold_left
          (fun n (lo, hi) ->
            let span = hi - lo + 1 in
            n + ((span + wpl - 2) / wpl) + 1)
          n (merge_intervals ivs))
      0 regs
  in
  (abs_lines + rel_lines + any : int)

(* Distinct-line upper bound for a set of sites; [Unbounded] as soon as an
   unbounded-address site sits in a CFG cycle (it may touch a fresh line on
   every iteration). A Cany site outside any cycle executes at most once per
   attempt and so contributes at most one line. *)
let line_bound sites =
  if List.exists (fun (s : site) -> s.component = Cany && s.in_cycle) sites then Unbounded
  else
    Finite (lines_of_components (List.map (fun (s : site) -> (s.component, s.in_cycle)) sites))

let empty_summary ?(regions = []) name body =
  let n = Array.length body in
  {
    name;
    body;
    regions;
    reachable = Array.make n false;
    in_cycle = Array.make n false;
    in_states = Array.init n (fun _ -> Array.make nregs Value.bot);
    sites = [];
    read_lines = Finite 0;
    write_lines = Finite 0;
    footprint_lines = Finite 0;
    store_execs = Finite 0;
    min_store_execs = max_int;
    max_instr_execs = Finite 0;
    indirections = [];
    must_indirect = false;
    falls_off_end = true;
  }

let analyze ?(name = "<raw>") ?(regions = []) (body : I.t array) : summary =
  let n = Array.length body in
  if n = 0 then empty_summary ~regions name body
  else begin
    let initial = Array.init nregs (fun r -> Value.init_ r) in
    let in_states = Array.init n (fun _ -> Array.make nregs Value.bot) in
    Array.blit initial 0 in_states.(0) 0 nregs;
    let reached = Array.make n false in
    reached.(0) <- true;
    let falls_off = ref false in

    (* Phase 1: may-state fixpoint, widening after a few plain passes. *)
    let changed = ref true in
    let pass = ref 0 in
    while !changed do
      changed := false;
      let widening = !pass >= 3 in
      for i = 0 to n - 1 do
        if reached.(i) then
          List.iter
            (fun (j, out) ->
              if j = n then falls_off := true
              else begin
                let dst = in_states.(j) in
                if not reached.(j) then begin
                  reached.(j) <- true;
                  changed := true
                end;
                for r = 0 to nregs - 1 do
                  let next = Value.join dst.(r) out.(r) in
                  let next = if widening then Value.widen ~prev:dst.(r) ~next else next in
                  if not (Value.equal next dst.(r)) then begin
                    dst.(r) <- next;
                    changed := true
                  end
                done
              end)
            (step n in_states.(i) i body.(i))
      done;
      incr pass
    done;
    (* Phase 2: a few narrowing passes. Each recomputes every in-state as the
       plain join of its predecessors' out-edges — one application of the
       (monotone) transfer to a sound state yields a sound state, so this
       recovers the precision widening gave away without risking
       non-termination. Reachability keeps the phase-1 result. *)
    for _ = 1 to 3 do
      let fresh = Array.init n (fun _ -> Array.make nregs Value.bot) in
      let seen = Array.make n false in
      seen.(0) <- true;
      Array.blit initial 0 fresh.(0) 0 nregs;
      for i = 0 to n - 1 do
        if reached.(i) then
          List.iter
            (fun (j, out) ->
              if j < n then begin
                let dst = fresh.(j) in
                if not seen.(j) then begin
                  seen.(j) <- true;
                  Array.blit out 0 dst 0 nregs
                end
                else
                  for r = 0 to nregs - 1 do
                    dst.(r) <- Value.join dst.(r) out.(r)
                  done
              end)
            (step n in_states.(i) i body.(i))
      done;
      for i = 0 to n - 1 do
        if reached.(i) && seen.(i) then Array.blit fresh.(i) 0 in_states.(i) 0 nregs
      done
    done;

    (* CFG successors (index [n] = fall-through exit) for the graph passes. *)
    let succs i =
      List.map fst (step n in_states.(i) i body.(i))
      |> List.filter (fun j -> j < n)
    in
    let in_cycle = Array.make n false in
    for i = 0 to n - 1 do
      if reached.(i) then begin
        (* i is in a cycle iff i is reachable from one of its successors *)
        let visited = Array.make n false in
        let rec dfs j =
          if j = i then true
          else if visited.(j) then false
          else begin
            visited.(j) <- true;
            List.exists dfs (succs j)
          end
        in
        in_cycle.(i) <- List.exists dfs (succs i)
      end
    done;

    (* Memory-site components from the narrowed states. When the interval
       domain lost the address (an indirection collapsed it to Top) but the
       site carries a region tag with a declared extent, the extent bounds
       the site: the workload's layout guarantees — and the dynamic gate
       verifies — that tagged accesses stay inside their region. *)
    let component_of st base off region =
      let v = Value.binop I.Add (value_of st base) (Value.const_ off) in
      match v.Value.shape with
      | Value.Const when Value.is_finite v -> Cwords { lo = v.Value.lo; hi = v.Value.hi }
      | Value.Init r when Value.is_finite v -> Crel { reg = r; lo = v.Value.lo; hi = v.Value.hi }
      | _ -> (
          match List.assoc_opt region regions with
          | Some (lo, hi) -> Cregion { lo; hi; region }
          | None -> Cany)
    in
    let sites = ref [] in
    for i = n - 1 downto 0 do
      if reached.(i) then
        match body.(i) with
        | I.Ld { base; off; region; _ } ->
            sites :=
              {
                index = i;
                written = false;
                region = Clear.Analysis.region_name region;
                component = component_of in_states.(i) base off (Clear.Analysis.region_name region);
                in_cycle = in_cycle.(i);
              }
              :: !sites
        | I.St { base; off; region; _ } ->
            sites :=
              {
                index = i;
                written = true;
                region = Clear.Analysis.region_name region;
                component = component_of in_states.(i) base off (Clear.Analysis.region_name region);
                in_cycle = in_cycle.(i);
              }
              :: !sites
        | _ -> ()
    done;
    let sites = !sites in
    let stores = List.filter (fun (s : site) -> s.written) sites in

    (* Store-execution bounds: an acyclic site runs at most once per attempt. *)
    let store_execs =
      if List.exists (fun (s : site) -> s.in_cycle) stores then Unbounded
      else Finite (List.length stores)
    in
    let min_store_execs =
      (* Shortest path (in stores executed) from entry to any Halt. *)
      let dist = Array.make (n + 1) max_int in
      dist.(0) <- 0;
      let changed = ref true in
      while !changed do
        changed := false;
        for i = 0 to n - 1 do
          if reached.(i) && dist.(i) < max_int then begin
            let w = match body.(i) with I.St _ -> 1 | _ -> 0 in
            List.iter
              (fun j ->
                if dist.(i) + w < dist.(j) then begin
                  dist.(j) <- dist.(i) + w;
                  changed := true
                end)
              (succs i)
          end
        done
      done;
      let best = ref max_int in
      for i = 0 to n - 1 do
        if reached.(i) && body.(i) = I.Halt then best := min !best dist.(i)
      done;
      !best
    in
    let max_instr_execs =
      if Array.exists Fun.id in_cycle then Unbounded
      else begin
        (* DAG: longest instruction count from entry. *)
        let memo = Array.make n (-1) in
        let rec longest i =
          if memo.(i) >= 0 then memo.(i)
          else begin
            memo.(i) <- 0;
            (* placeholder against raw self-loops *)
            let v = 1 + List.fold_left (fun acc j -> max acc (longest j)) 0 (succs i) in
            memo.(i) <- v;
            v
          end
        in
        Finite (longest 0)
      end
    in

    (* Must-taint: a register is must-tainted when it is tainted on every
       path; mirrors the engine's dynamic taint bits (Regfile) from below. *)
    let must = Array.init n (fun _ -> Array.make nregs false) in
    let seen = Array.make n false in
    seen.(0) <- true;
    let op_must st = function I.Reg r -> st.(r) | I.Imm _ -> false in
    let changed = ref true in
    while !changed do
      changed := false;
      for i = 0 to n - 1 do
        if reached.(i) && seen.(i) then begin
          let out = Array.copy must.(i) in
          (match body.(i) with
          | I.Ld { dst; _ } -> out.(dst) <- true
          | I.Mov { dst; src } -> out.(dst) <- op_must must.(i) src
          | I.Binop { dst; a; b; _ } -> out.(dst) <- op_must must.(i) a || op_must must.(i) b
          | I.St _ | I.Br _ | I.Jmp _ | I.Nop | I.Halt -> ());
          List.iter
            (fun j ->
              if not seen.(j) then begin
                seen.(j) <- true;
                Array.blit out 0 must.(j) 0 nregs;
                changed := true
              end
              else
                for r = 0 to nregs - 1 do
                  if must.(j).(r) && not out.(r) then begin
                    must.(j).(r) <- false;
                    changed := true
                  end
                done)
            (succs i)
        end
      done
    done;
    let definite_indirection i =
      match body.(i) with
      | I.Ld { base; _ } | I.St { base; _ } -> op_must must.(i) base
      | I.Br { a; b; _ } -> op_must must.(i) a || op_must must.(i) b
      | _ -> false
    in
    let must_indirect =
      (* Every path from entry to a Halt crosses a definite indirection. *)
      let ok = Array.make n false in
      let rec bfs i =
        if i < n && reached.(i) && (not ok.(i)) && not (definite_indirection i) then begin
          ok.(i) <- true;
          List.iter bfs (succs i)
        end
      in
      bfs 0;
      let halt_clean = ref false in
      for i = 0 to n - 1 do
        if ok.(i) && body.(i) = I.Halt then halt_clean := true
      done;
      (* No clean path to Halt — but only claim must-indirection when a Halt
         is reachable at all; a program that never halts never reaches the
         decision point, so either answer is sound and [false] is neutral. *)
      let any_halt = Array.exists2 (fun r ins -> r && ins = I.Halt) reached body in
      any_halt && not !halt_clean
    in

    let read_sites = List.filter (fun s -> not s.written) sites in
    {
      name;
      body;
      regions;
      reachable = reached;
      in_cycle;
      in_states;
      sites;
      read_lines = line_bound read_sites;
      write_lines = line_bound stores;
      footprint_lines = line_bound sites;
      store_execs;
      min_store_execs;
      max_instr_execs;
      indirections = Clear.Analysis.indirections body;
      must_indirect;
      falls_off_end = !falls_off;
    }
  end

let analyze_ar (ar : Isa.Program.ar) = analyze ~name:ar.name ~regions:ar.regions ar.body
