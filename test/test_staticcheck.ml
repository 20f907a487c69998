(* Tests for the static AR verifier: abstract-interpretation summaries,
   CLEAR table/decision prediction, the lint pass, and the static-vs-dynamic
   soundness gate (including the injected-bug path proving the gate fires). *)

module A = Staticcheck.Absint
module Pr = Staticcheck.Predict
module L = Staticcheck.Lint
module G = Staticcheck.Gate
module I = Isa.Instr
module P = Isa.Program

let build ?(id = 0) name f = P.build_ar ~id ~name f

let default_params = Clear_repro.Run.predict_params Machine.Config.default

(* ------------------------------------------------------------------ *)
(* Registry summaries *)

(* Every registry AR must come out with a sound, non-trivial summary: a
   reachable Halt and a finite instruction bound on acyclic bodies. *)
let test_registry_summaries_sane () =
  List.iter
    (fun (w : Machine.Workload.t) ->
      List.iter
        (fun (ar : P.ar) ->
          let s = A.analyze_ar ar in
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s has a Halt path" w.name ar.P.name)
            true
            (s.A.min_store_execs < max_int);
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s does not fall off the end" w.name ar.P.name)
            false s.A.falls_off_end)
        w.ars)
    Workloads.Registry.all

(* Every registry AR's static summary and prediction, one row each, pinned
   from the verifier before its abstract values stopped carrying taint: line
   bounds, execution bounds, indirections, the five fits, lock groups,
   envelope and Table-1 class. A drift here changes what the gate and
   [clear_sim analyze] report. *)
let summary_row (w : Machine.Workload.t) (ar : P.ar) =
  let written_regions = List.concat_map P.regions_written w.ars in
  let s = A.analyze_ar ar in
  let p = Pr.predict ~params:default_params ~written_regions s in
  let b = A.bound_to_string and f = Pr.fit_name in
  Printf.sprintf
    "%s/%s r=%s w=%s fp=%s st=%s minst=%d instr=%s must=%b ind=[%s] alt=%s sq=%s lock=%s crt=%s \
     win=%s groups=%s env=%s class=%s"
    w.name ar.P.name (b s.A.read_lines) (b s.A.write_lines) (b s.A.footprint_lines)
    (b s.A.store_execs) s.A.min_store_execs (b s.A.max_instr_execs) s.A.must_indirect
    (String.concat "," s.A.indirections) (f p.Pr.alt_fit) (f p.Pr.sq_fit) (f p.Pr.lock_fit)
    (f p.Pr.crt_fit) (f p.Pr.window_fit)
    (match p.Pr.lock_groups with None -> "-" | Some n -> string_of_int n)
    (Pr.envelope_name p.Pr.envelope)
    (Clear.Analysis.classification_name p.Pr.classification)

let golden_summaries =
  [
    "arrayswap/swap r=2 w=2 fp=2 st=2 minst=2 instr=5 must=false ind=[] alt=fits sq=fits lock=fits crt=fits win=fits groups=- env=NS-CL class=immutable";
    "arrayswap/add_pair r=2 w=1 fp=2 st=1 minst=1 instr=6 must=false ind=[] alt=fits sq=fits lock=fits crt=fits win=fits groups=- env=NS-CL class=immutable";
    "bitcoin/transfer r=4 w=2 fp=6 st=2 minst=2 instr=9 must=true ind=[users] alt=fits sq=fits lock=fits crt=fits win=fits groups=- env=S-CL class=likely immutable";
    "bst/insert r=31841 w=6 fp=31846 st=8 minst=5 instr=oo must=true ind=[bst.node,bst.root] alt=may overflow sq=fits lock=may overflow crt=fits win=may overflow groups=- env=S-CL|spec class=mutable";
    "bst/contains r=31842 w=1 fp=31843 st=2 minst=1 instr=oo must=true ind=[bst.node,bst.root] alt=may overflow sq=fits lock=may overflow crt=fits win=may overflow groups=- env=S-CL|spec class=mutable";
    "bst/delete r=31841 w=2 fp=31843 st=3 minst=1 instr=oo must=true ind=[bst.node,bst.root] alt=may overflow sq=fits lock=may overflow crt=fits win=may overflow groups=- env=S-CL|spec class=mutable";
    "deque/push_back r=1 w=2 fp=2 st=2 minst=2 instr=8 must=true ind=[dq.idx] alt=fits sq=fits lock=fits crt=fits win=fits groups=- env=S-CL class=mutable";
    "deque/pop_front r=3 w=2 fp=4 st=3 minst=1 instr=12 must=true ind=[dq.idx] alt=fits sq=fits lock=fits crt=fits win=fits groups=- env=S-CL class=mutable";
    "hashmap/insert r=31815 w=4 fp=31818 st=5 minst=1 instr=oo must=true ind=[hm.node] alt=may overflow sq=fits lock=may overflow crt=fits win=may overflow groups=- env=S-CL|spec class=mutable";
    "hashmap/lookup r=31816 w=1 fp=31817 st=2 minst=1 instr=oo must=true ind=[hm.head,hm.node] alt=may overflow sq=fits lock=may overflow crt=fits win=may overflow groups=- env=S-CL|spec class=mutable";
    "hashmap/remove r=31815 w=2 fp=31817 st=3 minst=1 instr=oo must=true ind=[hm.node] alt=may overflow sq=fits lock=may overflow crt=fits win=may overflow groups=- env=S-CL|spec class=mutable";
    "mwobject/mw_update r=2 w=2 fp=2 st=4 minst=4 instr=13 must=false ind=[] alt=fits sq=fits lock=fits crt=fits win=fits groups=- env=NS-CL class=immutable";
    "queue/enqueue r=1 w=4 fp=4 st=4 minst=4 instr=6 must=true ind=[q.tail] alt=fits sq=fits lock=fits crt=fits win=fits groups=- env=S-CL class=mutable";
    "queue/dequeue r=3 w=2 fp=4 st=3 minst=1 instr=8 must=true ind=[q.head,q.node] alt=fits sq=fits lock=fits crt=fits win=fits groups=- env=S-CL class=mutable";
    "stack/push r=1 w=3 fp=3 st=3 minst=3 instr=5 must=false ind=[] alt=fits sq=fits lock=fits crt=fits win=fits groups=- env=NS-CL class=immutable";
    "stack/pop r=3 w=2 fp=4 st=3 minst=1 instr=8 must=true ind=[st.top] alt=fits sq=fits lock=fits crt=fits win=fits groups=- env=S-CL class=mutable";
    "sorted-list/count_matching r=31819 w=1 fp=31820 st=1 minst=1 instr=oo must=true ind=[list.head,list.node] alt=may overflow sq=fits lock=may overflow crt=fits win=may overflow groups=- env=S-CL|spec class=mutable";
    "sorted-list/insert r=31818 w=3 fp=31821 st=3 minst=1 instr=oo must=true ind=[list.node] alt=may overflow sq=fits lock=may overflow crt=fits win=may overflow groups=- env=S-CL|spec class=mutable";
    "sorted-list/update_stats r=1 w=1 fp=1 st=1 minst=1 instr=4 must=false ind=[] alt=fits sq=fits lock=fits crt=fits win=fits groups=- env=NS-CL class=immutable";
    "bayes/update_score r=2 w=1 fp=3 st=1 minst=1 instr=5 must=true ind=[bay.dir] alt=fits sq=fits lock=fits crt=fits win=fits groups=- env=S-CL class=likely immutable";
    "bayes/inc_parent_count r=2 w=1 fp=3 st=1 minst=1 instr=5 must=true ind=[bay.dir] alt=fits sq=fits lock=fits crt=fits win=fits groups=- env=S-CL class=likely immutable";
    "bayes/dec_parent_count r=2 w=1 fp=3 st=1 minst=1 instr=5 must=true ind=[bay.dir] alt=fits sq=fits lock=fits crt=fits win=fits groups=- env=S-CL class=likely immutable";
    "bayes/log_progress r=2 w=2 fp=4 st=2 minst=2 instr=6 must=true ind=[bay.pdir] alt=fits sq=fits lock=fits crt=fits win=fits groups=- env=S-CL class=likely immutable";
    "bayes/read_scores r=3 w=1 fp=4 st=1 minst=1 instr=8 must=true ind=[bay.dir] alt=fits sq=fits lock=fits crt=fits win=fits groups=- env=S-CL class=likely immutable";
    "bayes/push_task r=1 w=2 fp=2 st=2 minst=2 instr=7 must=true ind=[bay.idx] alt=fits sq=fits lock=fits crt=fits win=fits groups=- env=S-CL class=mutable";
    "bayes/pop_task r=2 w=2 fp=3 st=2 minst=2 instr=8 must=true ind=[bay.idx] alt=fits sq=fits lock=fits crt=fits win=fits groups=- env=S-CL class=mutable";
    "bayes/add_parent r=15963 w=3 fp=15966 st=4 minst=0 instr=oo must=true ind=[bay.node] alt=may overflow sq=fits lock=may overflow crt=fits win=may overflow groups=- env=S-CL|spec class=mutable";
    "bayes/remove_parent r=15964 w=2 fp=15966 st=3 minst=1 instr=oo must=true ind=[bay.node] alt=may overflow sq=fits lock=may overflow crt=fits win=may overflow groups=- env=S-CL|spec class=mutable";
    "bayes/has_parent r=15964 w=1 fp=15965 st=2 minst=1 instr=oo must=true ind=[bay.node] alt=may overflow sq=fits lock=may overflow crt=fits win=may overflow groups=- env=S-CL|spec class=mutable";
    "bayes/count_parents r=15964 w=1 fp=15965 st=1 minst=1 instr=oo must=true ind=[bay.node] alt=may overflow sq=fits lock=may overflow crt=fits win=may overflow groups=- env=S-CL|spec class=mutable";
    "bayes/reverse_edge r=15965 w=3 fp=15967 st=3 minst=0 instr=oo must=true ind=[bay.node] alt=may overflow sq=fits lock=may overflow crt=fits win=may overflow groups=- env=S-CL|spec class=mutable";
    "bayes/sum_family_scores r=15965 w=1 fp=15966 st=1 minst=1 instr=oo must=true ind=[bay.node] alt=may overflow sq=fits lock=may overflow crt=fits win=may overflow groups=- env=S-CL|spec class=mutable";
    "bayes/touch_family r=15964 w=24 fp=15964 st=oo minst=0 instr=oo must=true ind=[bay.node] alt=may overflow sq=may overflow lock=may overflow crt=may overflow win=may overflow groups=- env=S-CL|spec class=mutable";
    "genome/hashset_insert r=31846 w=4 fp=31850 st=5 minst=1 instr=oo must=true ind=[gen.hs] alt=may overflow sq=fits lock=may overflow crt=fits win=may overflow groups=- env=S-CL|spec class=mutable";
    "genome/hashset_contains r=31847 w=1 fp=31848 st=2 minst=1 instr=oo must=true ind=[gen.hs] alt=may overflow sq=fits lock=may overflow crt=fits win=may overflow groups=- env=S-CL|spec class=mutable";
    "genome/chain_append r=31830 w=1 fp=31831 st=1 minst=0 instr=oo must=false ind=[gen.seg] alt=may overflow sq=fits lock=may overflow crt=fits win=may overflow groups=- env=NS-CL|S-CL|spec class=mutable";
    "genome/chain_weight r=31830 w=1 fp=31831 st=1 minst=1 instr=oo must=false ind=[gen.seg] alt=may overflow sq=fits lock=may overflow crt=fits win=may overflow groups=- env=NS-CL|S-CL|spec class=mutable";
    "genome/bump_tail_weight r=31831 w=1 fp=31832 st=1 minst=1 instr=oo must=true ind=[gen.seg] alt=may overflow sq=fits lock=may overflow crt=fits win=may overflow groups=- env=S-CL|spec class=mutable";
    "intruder/pop_fragment r=65 w=2 fp=66 st=2 minst=2 instr=oo must=true ind=[intr.idx] alt=may overflow sq=fits lock=may overflow crt=fits win=may overflow groups=- env=S-CL|spec class=mutable";
    "intruder/update_flow r=3 w=3 fp=6 st=3 minst=3 instr=9 must=true ind=[intr.fdir] alt=fits sq=fits lock=fits crt=fits win=fits groups=- env=S-CL class=likely immutable";
    "intruder/update_detector r=2 w=1 fp=3 st=1 minst=1 instr=5 must=true ind=[intr.ddir] alt=fits sq=fits lock=fits crt=fits win=fits groups=- env=S-CL class=likely immutable";
    "kmeans-h/add_point r=6 w=5 fp=11 st=5 minst=5 instr=17 must=true ind=[km.dir] alt=fits sq=fits lock=fits crt=fits win=fits groups=- env=S-CL class=likely immutable";
    "kmeans-h/update_membership r=3 w=2 fp=5 st=2 minst=2 instr=8 must=true ind=[km.mdir] alt=fits sq=fits lock=fits crt=fits win=fits groups=- env=S-CL class=likely immutable";
    "kmeans-h/update_delta r=1 w=1 fp=1 st=1 minst=1 instr=4 must=false ind=[] alt=fits sq=fits lock=fits crt=fits win=fits groups=- env=NS-CL class=immutable";
    "kmeans-l/add_point r=6 w=5 fp=11 st=5 minst=5 instr=17 must=true ind=[km.dir] alt=fits sq=fits lock=fits crt=fits win=fits groups=- env=S-CL class=likely immutable";
    "kmeans-l/update_membership r=3 w=2 fp=5 st=2 minst=2 instr=8 must=true ind=[km.mdir] alt=fits sq=fits lock=fits crt=fits win=fits groups=- env=S-CL class=likely immutable";
    "kmeans-l/update_delta r=1 w=1 fp=1 st=1 minst=1 instr=4 must=false ind=[] alt=fits sq=fits lock=fits crt=fits win=fits groups=- env=NS-CL class=immutable";
    "labyrinth/claim_path r=258 w=73 fp=259 st=oo minst=1 instr=oo must=true ind=[lab.grid,lab.path] alt=may overflow sq=may overflow lock=may overflow crt=may overflow win=may overflow groups=- env=S-CL|spec class=mutable";
    "labyrinth/erase_path r=258 w=72 fp=258 st=oo minst=0 instr=oo must=true ind=[lab.grid,lab.path] alt=may overflow sq=may overflow lock=may overflow crt=may overflow win=may overflow groups=- env=S-CL|spec class=mutable";
    "labyrinth/validate_path r=258 w=1 fp=259 st=1 minst=1 instr=oo must=true ind=[lab.grid,lab.path] alt=may overflow sq=fits lock=may overflow crt=fits win=may overflow groups=- env=S-CL|spec class=mutable";
    "ssca2/inc_degree r=1 w=1 fp=1 st=1 minst=1 instr=4 must=false ind=[] alt=fits sq=fits lock=fits crt=fits win=fits groups=- env=NS-CL class=immutable";
    "ssca2/write_edge r=0 w=1 fp=1 st=1 minst=1 instr=2 must=false ind=[] alt=fits sq=fits lock=fits crt=fits win=fits groups=- env=NS-CL class=immutable";
    "ssca2/update_stats r=3 w=2 fp=5 st=2 minst=2 instr=8 must=true ind=[g.dir] alt=fits sq=fits lock=fits crt=fits win=fits groups=- env=S-CL class=likely immutable";
    "vacation-h/reserve r=51 w=3 fp=54 st=4 minst=1 instr=oo must=true ind=[vac.head,vac.rec] alt=may overflow sq=fits lock=may overflow crt=fits win=may overflow groups=- env=S-CL|spec class=mutable";
    "vacation-h/cancel r=51 w=3 fp=54 st=4 minst=1 instr=oo must=true ind=[vac.head,vac.rec] alt=may overflow sq=fits lock=may overflow crt=fits win=may overflow groups=- env=S-CL|spec class=mutable";
    "vacation-h/update_customer r=3 w=2 fp=5 st=2 minst=2 instr=8 must=true ind=[vac.cdir] alt=fits sq=fits lock=fits crt=fits win=fits groups=- env=S-CL class=likely immutable";
    "vacation-l/reserve r=147 w=3 fp=150 st=4 minst=1 instr=oo must=true ind=[vac.head,vac.rec] alt=may overflow sq=fits lock=may overflow crt=fits win=may overflow groups=- env=S-CL|spec class=mutable";
    "vacation-l/cancel r=147 w=3 fp=150 st=4 minst=1 instr=oo must=true ind=[vac.head,vac.rec] alt=may overflow sq=fits lock=may overflow crt=fits win=may overflow groups=- env=S-CL|spec class=mutable";
    "vacation-l/update_customer r=3 w=2 fp=5 st=2 minst=2 instr=8 must=true ind=[vac.cdir] alt=fits sq=fits lock=fits crt=fits win=fits groups=- env=S-CL class=likely immutable";
    "yada/pop_work r=2 w=2 fp=3 st=2 minst=2 instr=8 must=true ind=[yada.idx] alt=fits sq=fits lock=fits crt=fits win=fits groups=- env=S-CL class=mutable";
    "yada/push_work r=1 w=2 fp=2 st=2 minst=2 instr=7 must=true ind=[yada.idx] alt=fits sq=fits lock=fits crt=fits win=fits groups=- env=S-CL class=mutable";
    "yada/refine r=5 w=4 fp=8 st=4 minst=1 instr=19 must=true ind=[yada.tri] alt=fits sq=fits lock=fits crt=fits win=fits groups=- env=S-CL class=mutable";
    "yada/split r=1 w=4 fp=4 st=6 minst=5 instr=9 must=true ind=[yada.tri] alt=fits sq=fits lock=fits crt=fits win=fits groups=- env=S-CL class=mutable";
    "yada/check_quality r=5 w=1 fp=6 st=1 minst=1 instr=21 must=true ind=[yada.tri] alt=fits sq=fits lock=fits crt=fits win=fits groups=- env=S-CL class=mutable";
    "yada/global_counter r=1 w=1 fp=1 st=1 minst=1 instr=4 must=false ind=[] alt=fits sq=fits lock=fits crt=fits win=fits groups=- env=NS-CL class=immutable";
  ]

let test_golden_summaries () =
  let rows =
    List.concat_map
      (fun (w : Machine.Workload.t) -> List.map (summary_row w) w.ars)
      Workloads.Registry.all
  in
  Alcotest.(check (list string)) "registry summary rows" golden_summaries rows

(* ------------------------------------------------------------------ *)
(* Decision envelope *)

let test_envelope_immutable_fit () =
  (* tiny, load-free, absolutely addressed: the only possible decision is
     NS-CL (fits everything, provably no indirection) *)
  let ar =
    build "tiny" (fun b ->
        Isa.Asm.st b ~base:(I.Imm 64) ~src:(I.Imm 1) ~region:"a" ();
        Isa.Asm.halt b)
  in
  let p = Pr.predict ~params:default_params ~written_regions:[ "a" ] (A.analyze_ar ar) in
  Alcotest.(check string) "envelope" "NS-CL" (Pr.envelope_name p.Pr.envelope);
  Alcotest.(check bool) "NS-CL in" true
    (Pr.decision_in_envelope p.Pr.envelope Clear.Decision.Ns_cl);
  Alcotest.(check bool) "S-CL out" false
    (Pr.decision_in_envelope p.Pr.envelope Clear.Decision.S_cl);
  Alcotest.(check bool) "spec out" false
    (Pr.decision_in_envelope p.Pr.envelope Clear.Decision.Speculative_retry)

let test_envelope_fallback_only () =
  (* every path executes 2 stores; with a 1-entry SQ no discovery can ever
     complete, so the envelope is empty (fallback/speculation only) *)
  let ar =
    build "twostores" (fun b ->
        Isa.Asm.st b ~base:(I.Imm 64) ~src:(I.Imm 1) ~region:"a" ();
        Isa.Asm.st b ~base:(I.Imm 72) ~src:(I.Imm 2) ~region:"a" ();
        Isa.Asm.halt b)
  in
  let params = { default_params with Pr.sq_entries = 1 } in
  let p = Pr.predict ~params ~written_regions:[ "a" ] (A.analyze_ar ar) in
  Alcotest.(check bool) "fallback only" true p.Pr.envelope.Pr.fallback_only;
  Alcotest.(check string) "name" "fallback-only" (Pr.envelope_name p.Pr.envelope)

(* ------------------------------------------------------------------ *)
(* Lint *)

let expected_demo_errors = [ "div-zero"; "absurd-offset"; "target-range"; "missing-halt" ]

let test_lint_broken_demo () =
  let diags = L.check_body ~name:"demo" L.broken_demo in
  Alcotest.(check int) "error count" (List.length expected_demo_errors) (L.errors diags);
  let error_codes =
    List.filter_map (fun (d : L.diag) -> if d.L.severity = L.Error then Some d.L.code else None)
      diags
    |> List.sort_uniq compare
  in
  Alcotest.(check (list string)) "error codes" (List.sort compare expected_demo_errors) error_codes;
  (* the warnings are present too *)
  List.iter
    (fun code ->
      Alcotest.(check bool) (code ^ " reported") true
        (List.exists (fun (d : L.diag) -> d.L.code = code) diags))
    [ "dead-write"; "negative-offset"; "untagged-region" ]

let test_lint_registry_clean () =
  List.iter
    (fun (w : Machine.Workload.t) ->
      List.iter
        (fun ar ->
          let diags = L.check_ar ar in
          Alcotest.(check int)
            (Printf.sprintf "%s/%s error-free" w.name ar.P.name)
            0 (L.errors diags))
        w.ars)
    Workloads.Registry.all

let test_lint_unreachable () =
  let body =
    [|
      I.Jmp 2;
      I.Mov { dst = 8; src = I.Imm 1 } (* unreachable *);
      I.Halt;
    |]
  in
  let diags = L.check_body ~name:"skip" body in
  Alcotest.(check bool) "unreachable flagged" true
    (List.exists (fun (d : L.diag) -> d.L.code = "unreachable" && d.L.index = Some 1) diags);
  Alcotest.(check int) "no errors" 0 (L.errors diags)

(* Raw bodies reach the analyzer unvalidated: branch and jump targets below
   zero or past the end are target-range errors, never an exception, and
   contribute no CFG edge to the indirection dataflow either. *)
let test_lint_raw_targets () =
  let body =
    [|
      I.Ld { dst = 8; base = I.Imm 64; off = 0; region = "r" };
      I.Br { cond = I.Eq; a = I.Reg 8; b = I.Imm 0; target = -3 };
      I.Br { cond = I.Ne; a = I.Reg 8; b = I.Imm 1; target = 5 };
      I.Jmp (-1);
      I.Jmp 9;
    |]
  in
  let s = A.analyze ~name:"raw" body in
  Alcotest.(check (list string)) "indirections" [ "r" ] s.A.indirections;
  let ranges =
    List.filter_map
      (fun (d : L.diag) -> if d.L.code = "target-range" then d.L.index else None)
      (L.check_body ~name:"raw" body)
  in
  Alcotest.(check (list int)) "target-range sites" [ 1; 2; 3; 4 ] (List.sort compare ranges)

(* ------------------------------------------------------------------ *)
(* Soundness gate: property on random valid bodies *)

(* Generated bodies keep every value non-negative (no Sub/Div/Rem/Shl) so
   word addresses stay non-negative, matching the engine's address space.
   Branches may jump backward — the interpreter's fuel guard bounds those
   runs, and the containment property is checked on whatever prefix ran. *)
let gen_instr ~i ~n rng =
  let gi bound = 1 + Random.State.int rng bound in
  let data_reg () = 8 + Random.State.int rng 4 in
  let base_reg () = Random.State.int rng 4 in
  let operand () =
    if Random.State.bool rng then I.Reg (data_reg ()) else I.Imm (Random.State.int rng 200)
  in
  let base () =
    if Random.State.bool rng then I.Reg (base_reg ()) else I.Imm (64 + Random.State.int rng 256)
  in
  let region () = [| "a"; "b"; "c" |].(Random.State.int rng 3) in
  match Random.State.int rng 10 with
  | 0 | 1 ->
      I.Ld
        {
          dst = (if Random.State.bool rng then data_reg () else base_reg ());
          base = base ();
          off = Random.State.int rng 16;
          region = region ();
        }
  | 2 | 3 ->
      I.St { base = base (); off = Random.State.int rng 16; src = operand (); region = region () }
  | 4 -> I.Mov { dst = data_reg (); src = I.Imm (Random.State.int rng 500) }
  | 5 | 6 ->
      let ops = [| I.Add; I.Mul; I.And; I.Or; I.Xor; I.Min; I.Max; I.Shr |] in
      I.Binop
        {
          op = ops.(Random.State.int rng (Array.length ops));
          dst = data_reg ();
          a = operand ();
          b = operand ();
        }
  | 7 ->
      let conds = [| I.Eq; I.Ne; I.Lt; I.Le; I.Gt; I.Ge |] in
      let target =
        if Random.State.int rng 4 = 0 then Random.State.int rng (i + 1) (* backward: may loop *)
        else i + gi (n - i)
      in
      I.Br { cond = conds.(Random.State.int rng 6); a = operand (); b = operand (); target }
  | 8 -> I.Nop
  | _ -> I.Mov { dst = data_reg (); src = I.Reg (data_reg ()) }

let gen_ar seed =
  let rng = Random.State.make [| 0x5eed; seed |] in
  let n = 2 + Random.State.int rng 12 in
  let body = Array.init (n + 1) (fun i -> if i = n then I.Halt else gen_instr ~i ~n rng) in
  let init_regs = List.init 4 (fun r -> (r, 64 + Random.State.int rng 512)) in
  (P.make_ar ~id:seed ~name:(Printf.sprintf "rand%d" seed) body, init_regs)

let run_recorded ar ~init_regs =
  let mem = Hashtbl.create 64 in
  let reads = ref [] and writes = ref [] and store_count = ref 0 in
  let load a =
    reads := Mem.Addr.line_of a :: !reads;
    Option.value (Hashtbl.find_opt mem a) ~default:0
  in
  let store a v =
    incr store_count;
    writes := Mem.Addr.line_of a :: !writes;
    Hashtbl.replace mem a v
  in
  let completed =
    match Isa.Interp.run ar ~init_regs ~load ~store with
    | () -> true
    | exception Isa.Interp.Error _ -> false (* fuel: generated backward branch looped *)
  in
  (!reads, !writes, !store_count, completed)

let prop_containment =
  QCheck.Test.make ~name:"dynamic footprint and store count within static bounds" ~count:400
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let ar, init_regs = gen_ar seed in
      let reads, writes, store_count, completed = run_recorded ar ~init_regs in
      let model = G.model (G.create default_params) [ ar ] in
      (match G.check_commit model ~ar ~init_regs ~reads ~writes with
      | Ok () -> ()
      | Error v ->
          QCheck.Test.fail_reportf "seed %d: %s" seed (Format.asprintf "%a" G.pp_violation v));
      (* the per-attempt store bound only applies to completed attempts *)
      (if completed then
         match (A.analyze_ar ar).A.store_execs with
         | A.Unbounded -> ()
         | A.Finite k ->
             if store_count > k then
               QCheck.Test.fail_reportf "seed %d: %d stores > static bound %d" seed store_count k);
      true)

(* Dynamic soundness of the may-conflict covers: every line an execution
   actually touches lies inside the region's full-footprint cover, and every
   line it writes inside its write cover — the per-region facts the
   pairwise conflict matrix is built from. *)
let prop_dynamic_in_cover =
  QCheck.Test.make ~name:"every dynamic footprint line lies in the static cover" ~count:400
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let ar, init_regs = gen_ar seed in
      let reads, writes, _store_count, _completed = run_recorded ar ~init_regs in
      let m = Staticcheck.Conflict.of_ars ~params:default_params [ ar ] in
      let info = (Staticcheck.Conflict.ars m).(0) in
      let within what cover lines =
        List.iter
          (fun l ->
            if not (Staticcheck.Conflict.mem cover l) then
              QCheck.Test.fail_reportf "seed %d: dynamic %s line %d escapes the cover" seed what l)
          lines
      in
      within "accessed" info.Staticcheck.Conflict.rw (reads @ writes);
      within "written" info.Staticcheck.Conflict.w writes;
      true)

(* ------------------------------------------------------------------ *)
(* Soundness gate: the injected analyzer bug is caught *)

let test_gate_injected_bug_fires () =
  let ar =
    build "onestore" (fun b ->
        Isa.Asm.st b ~base:(I.Imm 64) ~src:(I.Imm 1) ~region:"a" ();
        Isa.Asm.halt b)
  in
  let healthy = G.model (G.create default_params) [ ar ] in
  let faulty = G.model (G.create ~fault_drop_store:true default_params) [ ar ] in
  let writes = [ Mem.Addr.line_of 64 ] in
  (match G.check_commit healthy ~ar ~init_regs:[] ~reads:[] ~writes with
  | Ok () -> ()
  | Error v -> Alcotest.failf "healthy gate fired: %a" G.pp_violation v);
  match G.check_commit faulty ~ar ~init_regs:[] ~reads:[] ~writes with
  | Error (G.Footprint_escape { access = `Write; _ }) -> ()
  | Error v -> Alcotest.failf "wrong violation: %a" G.pp_violation v
  | Ok () -> Alcotest.fail "faulty gate did not fire"

(* A region the model was not built from escapes every check with a
   typed violation naming it, never an exception or a pass; so does one
   that reuses a listed region's id under another name. Through the
   streaming checker the same conflict surfaces as the run's static_
   verdict. *)
let store_at ~id name addr =
  build ~id name (fun b ->
      Isa.Asm.st b ~base:(I.Imm addr) ~src:(I.Imm 1) ~region:"a" ();
      Isa.Asm.halt b)

let test_gate_missing_ar_escapes () =
  let ar0 = store_at ~id:0 "zero" 64 and ar1 = store_at ~id:1 "one" 128 in
  let imposter = store_at ~id:0 "imposter" 64 in
  let model = G.model (G.create default_params) [ ar0 ] in
  let missing = "AR not in the workload's list" in
  (match G.check_commit model ~ar:ar0 ~init_regs:[] ~reads:[] ~writes:[ Mem.Addr.line_of 64 ] with
  | Ok () -> ()
  | Error v -> Alcotest.failf "listed AR escaped: %a" G.pp_violation v);
  List.iter
    (fun (ar : P.ar) ->
      (match G.check_commit model ~ar ~init_regs:[] ~reads:[] ~writes:[ Mem.Addr.line_of 64 ] with
      | Error (G.Footprint_escape { ar = name; access = `Write; bound; _ }) ->
          Alcotest.(check string) "footprint names the AR" ar.P.name name;
          Alcotest.(check string) "footprint bound" missing bound
      | Error v -> Alcotest.failf "wrong footprint violation: %a" G.pp_violation v
      | Ok () -> Alcotest.failf "%s: footprint passed" ar.P.name);
      List.iter
        (fun decision ->
          match G.check_decision model ~ar ~decision with
          | Error (G.Decision_escape { ar = name; envelope; _ }) ->
              Alcotest.(check string) "decision names the AR" ar.P.name name;
              Alcotest.(check string) "decision envelope" missing envelope
          | Error v -> Alcotest.failf "wrong decision violation: %a" G.pp_violation v
          | Ok () -> Alcotest.failf "%s: decision passed" ar.P.name)
        Clear.Decision.[ Ns_cl; S_cl; Speculative_retry ];
      List.iter
        (fun (aggressor, victim) ->
          match G.check_conflict model ~aggressor ~victim ~line:(Mem.Addr.line_of 64) with
          | Error (G.Conflict_escape { cover; _ }) -> Alcotest.(check string) "cover" missing cover
          | Error v -> Alcotest.failf "wrong conflict violation: %a" G.pp_violation v
          | Ok () -> Alcotest.failf "%s: conflict passed" ar.P.name)
        [ (ar0, ar); (ar, ar0); (ar, ar) ])
    [ ar1; imposter ];
  let str = Check.Stream.create ~static_gate:(G.create default_params) ~cores:2 () in
  let sink = Check.Stream.sink str in
  sink.Check.Collector.sink_ars [ ar0 ];
  Check.Stream.set_initial str (Mem.Store.image_of_array (Array.make 32 0));
  sink.Check.Collector.sink_conflict
    {
      Check.Collector.time = 1;
      aggressor_core = 0;
      victim_core = 1;
      aggressor_ar = ar0;
      victim_ar = ar1;
      line = Mem.Addr.line_of 64;
    };
  let v = Check.Stream.finish str ~final:(Mem.Store.image_of_array (Array.make 32 0)) in
  match v.Check.Stream.static_ with
  | Some (Error (G.Conflict_escape { victim = "one"; cover; _ })) ->
      Alcotest.(check string) "streamed cover" missing cover
  | Some (Error v') -> Alcotest.failf "wrong streamed violation: %a" G.pp_violation v'
  | Some (Ok ()) -> Alcotest.fail "streamed conflict passed"
  | None -> Alcotest.fail "no static verdict"

let arrayswap_cfg =
  Machine.Config.with_seed
    { Machine.Config.clear_rw with Machine.Config.cores = 2; ops_per_thread = 10 }
    7

(* A checked arrayswap run whose gate drops every AR's first store site. *)
let arrayswap_faulty_verdict () =
  let cfg = arrayswap_cfg in
  let w = Workloads.Registry.find "arrayswap" in
  let faulty = G.create ~fault_drop_store:true (Clear_repro.Run.predict_params cfg) in
  let cores = cfg.Machine.Config.cores in
  let str = Check.Stream.create ~static_gate:faulty ~cores () in
  let collector = Check.Collector.create_streaming ~cores (Check.Stream.sink str) in
  let engine = Machine.Engine.create ~check:collector cfg w in
  let _stats = Machine.Engine.run engine in
  let final = Mem.Store.snapshot (Machine.Engine.store engine) in
  Check.Verdict.of_stream str ~final

(* The injected bug must surface as its own verdict class on a real engine
   run, with the other three oracles still passing. *)
let test_gate_injected_bug_distinct_verdict () =
  let v = arrayswap_faulty_verdict () in
  Alcotest.(check bool) "verdict fails" false (Check.Verdict.ok v);
  Alcotest.(check bool) "serial still ok" true (Result.is_ok v.Check.Verdict.serial);
  Alcotest.(check bool) "replay still ok" true (Result.is_ok v.Check.Verdict.replay);
  Alcotest.(check bool) "locks still ok" true (Result.is_ok v.Check.Verdict.locks);
  match v.Check.Verdict.static_ with
  | Some (Error (G.Footprint_escape _)) -> ()
  | Some (Error v') -> Alcotest.failf "wrong violation class: %a" G.pp_violation v'
  | Some (Ok ()) -> Alcotest.fail "static gate passed despite injected bug"
  | None -> Alcotest.fail "no static gate in verdict"

(* ------------------------------------------------------------------ *)
(* Soundness gate: the per-domain model cache *)

(* A model is served again only for the physically same list under an
   equal geometry, and never to or from a fault-injecting gate. *)
let test_gate_cache_keys () =
  let ar0 = store_at ~id:0 "zero" 64 and ar1 = store_at ~id:1 "one" 128 in
  let ars = [ ar0 ] in
  let m0 = G.model (G.create default_params) ars in
  let equal_copy = { default_params with Pr.sq_entries = default_params.Pr.sq_entries } in
  Alcotest.(check bool) "same list, equal geometry: served" true
    (G.model (G.create equal_copy) ars == m0);
  Alcotest.(check bool) "other geometry: built" true
    (G.model (G.create { default_params with Pr.sq_entries = 1 }) ars != m0);
  (* That build took the domain's one entry. *)
  let m0 = G.model (G.create default_params) ars in
  Alcotest.(check bool) "fault gate: built" true
    (G.model (G.create ~fault_drop_store:true default_params) ars != m0);
  Alcotest.(check bool) "fault gate did not evict" true
    (G.model (G.create default_params) ars == m0);
  let m1 = G.model (G.create default_params) [ ar1 ] in
  Alcotest.(check bool) "other list: built" true (m1 != m0);
  let write ar addr = G.check_commit m1 ~ar ~init_regs:[] ~reads:[] ~writes:[ Mem.Addr.line_of addr ] in
  (match write ar1 128 with
  | Ok () -> ()
  | Error v -> Alcotest.failf "listed AR escaped: %a" G.pp_violation v);
  match write ar0 64 with
  | Error (G.Footprint_escape { ar = "zero"; _ }) -> ()
  | Error v -> Alcotest.failf "wrong violation: %a" G.pp_violation v
  | Ok () -> Alcotest.fail "a model for [ar0] was served for [ar1]"

(* A healthy run caches arrayswap's model; the faulty gate that follows on
   the same domain, with the same geometry, must still catch its bug. *)
let test_gate_fault_after_cached_model () =
  let w = Workloads.Registry.find "arrayswap" in
  let _stats, healthy =
    Clear_repro.Run.run_sim_checked { Clear_repro.Run.cfg = arrayswap_cfg; workload = w; seed = 7 }
  in
  Alcotest.(check bool) "healthy verdict ok" true (Check.Verdict.ok healthy);
  match (arrayswap_faulty_verdict ()).Check.Verdict.static_ with
  | Some (Error (G.Footprint_escape _)) -> ()
  | Some (Error v') -> Alcotest.failf "wrong violation class: %a" G.pp_violation v'
  | Some (Ok ()) -> Alcotest.fail "faulty gate passed after a healthy run"
  | None -> Alcotest.fail "no static gate in verdict"

(* A run served a cached model gives the verdict, field for field, of a
   run that built its own. *)
let test_gate_cached_verdict_equal () =
  let cfg = { Machine.Config.clear_power with Machine.Config.cores = 4; ops_per_thread = 20 } in
  let w = Workloads.Registry.find "hashmap" in
  let sim = { Clear_repro.Run.cfg; workload = w; seed = 3 } in
  let gate = Clear_repro.Run.static_gate_of_config (Machine.Config.with_seed cfg 3) in
  (* Another list's model evicts hashmap's, so the next run builds. *)
  let evicted = G.model gate (Workloads.Registry.find "bst").Machine.Workload.ars in
  let _, fresh = Clear_repro.Run.run_sim_checked sim in
  let built = G.model gate w.Machine.Workload.ars in
  Alcotest.(check bool) "the fresh run built and cached a model" true (built != evicted);
  let _, cached = Clear_repro.Run.run_sim_checked sim in
  Alcotest.(check bool) "the second run was served it" true (G.model gate w.Machine.Workload.ars == built);
  Alcotest.(check string) "report" (Check.Verdict.to_string fresh) (Check.Verdict.to_string cached);
  Alcotest.(check bool) "verdict equal field for field" true (fresh = cached)

(* And the healthy gate passes a full checked run end to end. *)
let test_gate_checked_run_passes () =
  let cfg = { Machine.Config.clear_power with Machine.Config.cores = 2; ops_per_thread = 10 } in
  let w = Workloads.Registry.find "sorted-list" in
  let _stats, v = Posthoc.run_sim_checked { Clear_repro.Run.cfg; workload = w; seed = 5 } in
  Alcotest.(check bool) "verdict ok" true (Check.Verdict.ok v);
  match v.Check.Verdict.static_ with
  | Some (Ok ()) -> ()
  | Some (Error v') -> Alcotest.failf "static gate fired: %a" G.pp_violation v'
  | None -> Alcotest.fail "checked run carried no static gate"

(* ------------------------------------------------------------------ *)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "staticcheck"
    [
      ( "agreement",
        [
          Alcotest.test_case "registry summaries sane" `Quick test_registry_summaries_sane;
          Alcotest.test_case "golden registry summaries" `Quick test_golden_summaries;
        ] );
      ( "envelope",
        [
          Alcotest.test_case "immutable fit is NS-CL only" `Quick test_envelope_immutable_fit;
          Alcotest.test_case "SQ-starved body is fallback-only" `Quick test_envelope_fallback_only;
        ] );
      ( "lint",
        [
          Alcotest.test_case "broken demo hits every error" `Quick test_lint_broken_demo;
          Alcotest.test_case "registry is error-free" `Quick test_lint_registry_clean;
          Alcotest.test_case "unreachable code" `Quick test_lint_unreachable;
          Alcotest.test_case "out-of-range targets never raise" `Quick test_lint_raw_targets;
        ] );
      ( "gate",
        [
          Alcotest.test_case "injected bug fires" `Quick test_gate_injected_bug_fires;
          Alcotest.test_case "missing AR escapes" `Quick test_gate_missing_ar_escapes;
          Alcotest.test_case "injected bug as distinct verdict" `Quick
            test_gate_injected_bug_distinct_verdict;
          Alcotest.test_case "checked run passes" `Quick test_gate_checked_run_passes;
          Alcotest.test_case "model cache keys" `Quick test_gate_cache_keys;
          Alcotest.test_case "fault gate after a cached model" `Quick
            test_gate_fault_after_cached_model;
          Alcotest.test_case "cached model keeps the verdict" `Quick test_gate_cached_verdict_equal;
        ]
        @ qsuite [ prop_containment; prop_dynamic_in_cover ] );
    ]
