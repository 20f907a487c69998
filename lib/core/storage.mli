(** Storage-overhead accounting for CLEAR's structures (paper §5).

    The paper reports, per core: 22.5 bytes of indirection bits (180 physical
    registers), a 146-byte ERT (16 entries), a 276-byte ALT (32 entries,
    CAM), a 544-byte CRT (64 entries, 8-way) — 988.5 bytes total, "less than
    1 KiB". {!paper} recomputes those numbers from field widths × the entry
    counts the simulator uses ({!Ert.default_entries},
    {!Alt.default_capacity}, {!Crt.default_entries}). The named fields of
    Figure 7 account for 63 (ALT) and 62 (CRT) bits per entry; matching the
    paper's byte counts requires 6 more bits per entry in each, which we
    attribute to the CAM priority-search / set bookkeeping the paper does not
    itemise. *)

type breakdown = {
  indirection_bytes : float;
  ert_bytes : float;
  alt_bytes : float;
  crt_bytes : float;
  total_bytes : float;
}

val paper : breakdown
(** The paper's configuration: 180 physical registers and the simulator's
    ERT, ALT and CRT sizes, 6 extra bits per CAM entry -> 988.5 bytes. *)
