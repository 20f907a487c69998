type t = {
  mutable events_popped : int;
  mutable conflict_checks : int;
  mutable conflict_hits : int;
  mutable footprint_inserts : int;
  mutable store_forward_scans : int;
  mutable aborts : int;
  mutable commits : int;
  mutable allocated_words : int;
  mutable check_live_lines : int;
  mutable check_retired : int;
}

let create () =
  {
    events_popped = 0;
    conflict_checks = 0;
    conflict_hits = 0;
    footprint_inserts = 0;
    store_forward_scans = 0;
    aborts = 0;
    commits = 0;
    allocated_words = 0;
    check_live_lines = 0;
    check_retired = 0;
  }

let merge_into ~dst src =
  dst.events_popped <- dst.events_popped + src.events_popped;
  dst.conflict_checks <- dst.conflict_checks + src.conflict_checks;
  dst.conflict_hits <- dst.conflict_hits + src.conflict_hits;
  dst.footprint_inserts <- dst.footprint_inserts + src.footprint_inserts;
  dst.store_forward_scans <- dst.store_forward_scans + src.store_forward_scans;
  dst.aborts <- dst.aborts + src.aborts;
  dst.commits <- dst.commits + src.commits;
  dst.allocated_words <- dst.allocated_words + src.allocated_words;
  dst.check_live_lines <- max dst.check_live_lines src.check_live_lines;
  dst.check_retired <- dst.check_retired + src.check_retired
