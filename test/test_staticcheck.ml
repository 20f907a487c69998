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

(* ------------------------------------------------------------------ *)
(* Agreement with the reference mutability analysis over the registry *)

let test_registry_agreement () =
  List.iter
    (fun (w : Machine.Workload.t) ->
      let written_regions = List.concat_map P.regions_written w.ars in
      List.iter2
        (fun ar (ar', c) ->
          assert (ar == ar');
          let s = A.analyze_ar ar in
          Alcotest.(check (list string))
            (Printf.sprintf "%s/%s indirections" w.name ar.P.name)
            (Clear.Analysis.indirections ar) s.A.indirections;
          let p = Pr.predict ~written_regions s in
          Alcotest.(check string)
            (Printf.sprintf "%s/%s classification" w.name ar.P.name)
            (Clear.Analysis.classification_name c)
            (Clear.Analysis.classification_name p.Pr.classification))
        w.ars
        (Clear.Analysis.classify_workload w.ars))
    Workloads.Registry.all

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
  let p = Pr.predict ~written_regions:[ "a" ] (A.analyze_ar ar) in
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
  let params = { Pr.default_params with Pr.sq_entries = 1 } in
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
      let gate = G.create Pr.default_params in
      (match G.check_commit gate ~ar ~init_regs ~reads ~writes with
      | Ok () -> ()
      | Error v ->
          QCheck.Test.fail_reportf "seed %d: %s" seed (Format.asprintf "%a" G.pp_violation v));
      (* the per-attempt store bound only applies to completed attempts *)
      (if completed then
         let s = G.summary gate ar in
         match s.A.store_execs with
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
      let info = (Staticcheck.Conflict.ars (Staticcheck.Conflict.of_ars [ ar ])).(0) in
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
  let healthy = G.create Pr.default_params in
  let faulty = G.create ~fault_drop_store:true Pr.default_params in
  let writes = [ Mem.Addr.line_of 64 ] in
  (match G.check_commit healthy ~ar ~init_regs:[] ~reads:[] ~writes with
  | Ok () -> ()
  | Error v -> Alcotest.failf "healthy gate fired: %a" G.pp_violation v);
  match G.check_commit faulty ~ar ~init_regs:[] ~reads:[] ~writes with
  | Error (G.Footprint_escape { access = `Write; _ }) -> ()
  | Error v -> Alcotest.failf "wrong violation: %a" G.pp_violation v
  | Ok () -> Alcotest.fail "faulty gate did not fire"

(* The injected bug must surface as its own verdict class on a real engine
   run, with the other three oracles still passing. *)
let test_gate_injected_bug_distinct_verdict () =
  let cfg =
    Machine.Config.with_seed
      { Machine.Config.clear_rw with Machine.Config.cores = 2; ops_per_thread = 10 }
      7
  in
  let w = Workloads.Registry.find "arrayswap" in
  let params =
    Pr.params_of ~alt_capacity:cfg.Machine.Config.alt_capacity ~sq_entries:cfg.sq_entries
      ~rob_entries:cfg.rob_entries ~crt_entries:cfg.crt_entries ~crt_ways:cfg.crt_ways
      cfg.mem_params
  in
  let faulty = G.create ~fault_drop_store:true params in
  let cores = cfg.Machine.Config.cores in
  let str = Check.Stream.create ~static_gate:faulty ~cores () in
  let collector = Check.Collector.create_streaming ~cores (Check.Stream.sink str) in
  let engine = Machine.Engine.create ~check:collector cfg w in
  let _stats = Machine.Engine.run engine in
  let final = Mem.Store.snapshot (Machine.Engine.store engine) in
  let v = Check.Verdict.of_stream str ~final in
  Alcotest.(check bool) "verdict fails" false (Check.Verdict.ok v);
  Alcotest.(check bool) "serial still ok" true (Result.is_ok v.Check.Verdict.serial);
  Alcotest.(check bool) "replay still ok" true (Result.is_ok v.Check.Verdict.replay);
  Alcotest.(check bool) "locks still ok" true (Result.is_ok v.Check.Verdict.locks);
  match v.Check.Verdict.static_ with
  | Some (Error (G.Footprint_escape _)) -> ()
  | Some (Error v') -> Alcotest.failf "wrong violation class: %a" G.pp_violation v'
  | Some (Ok ()) -> Alcotest.fail "static gate passed despite injected bug"
  | None -> Alcotest.fail "no static gate in verdict"

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
          Alcotest.test_case "classification matches Clear.Analysis" `Quick
            test_registry_agreement;
          Alcotest.test_case "registry summaries sane" `Quick test_registry_summaries_sane;
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
        ] );
      ( "gate",
        [
          Alcotest.test_case "injected bug fires" `Quick test_gate_injected_bug_fires;
          Alcotest.test_case "injected bug as distinct verdict" `Quick
            test_gate_injected_bug_distinct_verdict;
          Alcotest.test_case "checked run passes" `Quick test_gate_checked_run_passes;
        ]
        @ qsuite [ prop_containment; prop_dynamic_in_cover ] );
    ]
