(* The abort causes are the checker's lifecycle vocabulary; re-exported here
   for the engine, the statistics and their callers. *)
include Check.Abort
