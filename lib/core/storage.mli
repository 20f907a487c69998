(** Storage-overhead accounting for CLEAR's structures (paper §5).

    The paper reports, per core: 22.5 bytes of indirection bits (180 physical
    registers), a 146-byte ERT (16 entries), a 276-byte ALT (32 entries,
    CAM), a 544-byte CRT (64 entries, 8-way) — 988.5 bytes total, "less than
    1 KiB". These functions recompute those numbers from field widths ×
    entry counts. The named fields of Figure 7 account for 63 (ALT) and 62
    (CRT) bits per entry; matching the paper's byte counts requires 6 more
    bits per entry in each, which we attribute to the CAM priority-search /
    set bookkeeping the paper does not itemise ([alt_extra_bits] /
    [crt_extra_bits], overridable). *)

type breakdown = {
  indirection_bytes : float;
  ert_bytes : float;
  alt_bytes : float;
  crt_bytes : float;
  total_bytes : float;
}

val compute :
  ?physical_registers:int ->
  ?ert_entries:int ->
  ?alt_entries:int ->
  ?crt_entries:int ->
  ?alt_extra_bits:int ->
  ?crt_extra_bits:int ->
  unit ->
  breakdown
(** Defaults reproduce the paper's configuration: 180 physical registers, 16
    ERT entries, 32 ALT entries, 64 CRT entries, 6 extra bits per CAM entry
    -> 988.5 bytes. *)

val paper : breakdown
(** [compute ()] with the defaults. *)
