module S = Set.Make (String)
module I = Isa.Instr

type classification = Immutable | Likely_immutable | Mutable

let classification_name = function
  | Immutable -> "immutable"
  | Likely_immutable -> "likely immutable"
  | Mutable -> "mutable"

let anon_region = "<anon>"

let region_name r = if r = "" then anon_region else r

(* Taint state: one region set per register. The dataflow runs to fixpoint
   over the (tiny) CFG; merge is set union. Targets outside the body (on
   raw, unvalidated bodies) contribute no edge. *)
let indirections (body : I.t array) =
  let n = Array.length body in
  let nregs = I.num_regs in
  if n = 0 then []
  else begin
    (* in_state.(i).(r) = taint of register r before instruction i *)
    let in_state = Array.init n (fun _ -> Array.make nregs S.empty) in
    let reached = Array.make n false in
    reached.(0) <- true;
    let collected = ref S.empty in
    let taint_of st = function I.Reg r -> st.(r) | I.Imm _ -> S.empty in
    let use_as_indirection st op = collected := S.union !collected (taint_of st op) in
    let changed = ref true in
    let merge_into i st =
      if i >= 0 && i < n then begin
        let dst = in_state.(i) in
        let was_reached = reached.(i) in
        reached.(i) <- true;
        for r = 0 to nregs - 1 do
          let u = S.union dst.(r) st.(r) in
          if not (S.equal u dst.(r)) then begin
            dst.(r) <- u;
            changed := true
          end
        done;
        if not was_reached then changed := true
      end
    in
    while !changed do
      changed := false;
      let before_collect = !collected in
      for i = 0 to n - 1 do
        if reached.(i) then begin
          let st = Array.copy in_state.(i) in
          match body.(i) with
          | I.Ld { dst; base; off = _; region } ->
              use_as_indirection st base;
              st.(dst) <- S.singleton (region_name region);
              merge_into (i + 1) st
          | I.St { base; off = _; src = _; region = _ } ->
              use_as_indirection st base;
              merge_into (i + 1) st
          | I.Mov { dst; src } ->
              st.(dst) <- taint_of st src;
              merge_into (i + 1) st
          | I.Binop { op = _; dst; a; b } ->
              st.(dst) <- S.union (taint_of st a) (taint_of st b);
              merge_into (i + 1) st
          | I.Br { cond = _; a; b; target } ->
              use_as_indirection st a;
              use_as_indirection st b;
              merge_into target st;
              merge_into (i + 1) st
          | I.Jmp target -> merge_into target st
          | I.Nop -> merge_into (i + 1) st
          | I.Halt -> ()
        end
      done;
      if not (S.equal before_collect !collected) then changed := true
    done;
    S.elements !collected
  end

(* Classification from an already-computed indirection list; shared with the
   static verifier (lib/staticcheck), whose summaries carry [indirections]. *)
let classify_regions ~indirections:regions ~written_regions =
  match regions with
  | [] -> Immutable
  | regions ->
      let written = S.of_list (List.map region_name written_regions) in
      if List.exists (fun r -> S.mem r written) regions then Mutable else Likely_immutable

let classify ~(ar : Isa.Program.ar) ~written_regions =
  classify_regions ~indirections:(indirections ar.body) ~written_regions

let classify_workload ars =
  let written_regions = List.concat_map Isa.Program.regions_written ars in
  List.map (fun ar -> (ar, classify ~ar ~written_regions)) ars

let count classified =
  List.fold_left
    (fun (im, li, mu) (_, c) ->
      match c with
      | Immutable -> (im + 1, li, mu)
      | Likely_immutable -> (im, li + 1, mu)
      | Mutable -> (im, li, mu + 1))
    (0, 0, 0) classified
