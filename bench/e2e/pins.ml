(* Simulated-output digests at the default seed. A perf or simplicity change
   must leave them alone; a run whose digest differs counts every op of the
   unit as failed (fail_frac 1) instead of stopping the benchmark, so the
   other workloads still report. Other seeds are not pinned. checked pins
   the same digest as serve: capture must not perturb the simulation. *)

let seed = 42

let digest ~quick workload =
  match (quick, workload) with
  | false, "sweep" -> Some "276bd00e56e2f6fbe2cfbd0a983fbd62"
  | false, ("serve" | "checked") -> Some "06ba78f7d24a515af6ac2b5be56f6584"
  | true, "sweep" -> Some "4b2357f86aef9357dcd637c7408c554d"
  | true, ("serve" | "checked") -> Some "e2d6cb0413173ca8042539511f33d9dc"
  | _ -> None
