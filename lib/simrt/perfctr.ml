type t = {
  mutable sims : int;
  mutable events_popped : int;
  mutable conflict_checks : int;
  mutable conflict_hits : int;
  mutable footprint_inserts : int;
  mutable store_forward_scans : int;
  mutable aborts : int;
  mutable commits : int;
  mutable allocated_words : int;
  mutable open_arrivals : int;
  mutable open_dropped : int;
  mutable open_completed : int;
  mutable open_qdepth_hw : int;
  mutable check_live_lines : int;
  mutable check_retired : int;
}

let create () =
  {
    sims = 0;
    events_popped = 0;
    conflict_checks = 0;
    conflict_hits = 0;
    footprint_inserts = 0;
    store_forward_scans = 0;
    aborts = 0;
    commits = 0;
    allocated_words = 0;
    open_arrivals = 0;
    open_dropped = 0;
    open_completed = 0;
    open_qdepth_hw = 0;
    check_live_lines = 0;
    check_retired = 0;
  }

let reset t =
  t.sims <- 0;
  t.events_popped <- 0;
  t.conflict_checks <- 0;
  t.conflict_hits <- 0;
  t.footprint_inserts <- 0;
  t.store_forward_scans <- 0;
  t.aborts <- 0;
  t.commits <- 0;
  t.allocated_words <- 0;
  t.open_arrivals <- 0;
  t.open_dropped <- 0;
  t.open_completed <- 0;
  t.open_qdepth_hw <- 0;
  t.check_live_lines <- 0;
  t.check_retired <- 0

let merge_into ~dst src =
  dst.sims <- dst.sims + src.sims;
  dst.events_popped <- dst.events_popped + src.events_popped;
  dst.conflict_checks <- dst.conflict_checks + src.conflict_checks;
  dst.conflict_hits <- dst.conflict_hits + src.conflict_hits;
  dst.footprint_inserts <- dst.footprint_inserts + src.footprint_inserts;
  dst.store_forward_scans <- dst.store_forward_scans + src.store_forward_scans;
  dst.aborts <- dst.aborts + src.aborts;
  dst.commits <- dst.commits + src.commits;
  dst.allocated_words <- dst.allocated_words + src.allocated_words;
  dst.open_arrivals <- dst.open_arrivals + src.open_arrivals;
  dst.open_dropped <- dst.open_dropped + src.open_dropped;
  dst.open_completed <- dst.open_completed + src.open_completed;
  dst.open_qdepth_hw <- max dst.open_qdepth_hw src.open_qdepth_hw;
  dst.check_live_lines <- max dst.check_live_lines src.check_live_lines;
  dst.check_retired <- dst.check_retired + src.check_retired

let to_list t =
  [
    ("sims", t.sims);
    ("events_popped", t.events_popped);
    ("conflict_checks", t.conflict_checks);
    ("conflict_hits", t.conflict_hits);
    ("footprint_inserts", t.footprint_inserts);
    ("store_forward_scans", t.store_forward_scans);
    ("aborts", t.aborts);
    ("commits", t.commits);
    ("allocated_words", t.allocated_words);
    ("open_arrivals", t.open_arrivals);
    ("open_dropped", t.open_dropped);
    ("open_completed", t.open_completed);
    ("open_qdepth_hw", t.open_qdepth_hw);
    ("check_live_lines", t.check_live_lines);
    ("check_retired", t.check_retired);
  ]
