type breakdown = {
  indirection_bytes : float;
  ert_bytes : float;
  alt_bytes : float;
  crt_bytes : float;
  total_bytes : float;
}

(* One indirection bit per physical register. *)
let physical_registers = 180

(* Valid (1) + program counter (64) + is-convertible (1) + is-immutable (1)
   + SQ-full counter (2) + LRU (4) = 73 bits. *)
let ert_entry_bits = 1 + 64 + 1 + 1 + 2 + 4

(* Valid (1) + address (58) + needs-locking (1) + locked (1) + hit (1) +
   conflict (1) = 63 bits, before the extra CAM bits. *)
let alt_entry_bits = 1 + 58 + 1 + 1 + 1 + 1

(* Valid (1) + address (58) + LRU (3) = 62 bits, before the extra bits. *)
let crt_entry_bits = 1 + 58 + 3

(* The CAM priority-search / set bookkeeping bits per ALT and CRT entry. *)
let extra_bits = 6

let paper =
  let bytes bits = float_of_int bits /. 8.0 in
  let indirection_bytes = bytes physical_registers in
  let ert_bytes = bytes (Ert.default_entries * ert_entry_bits) in
  let alt_bytes = bytes (Alt.default_capacity * (alt_entry_bits + extra_bits)) in
  let crt_bytes = bytes (Crt.default_entries * (crt_entry_bits + extra_bits)) in
  {
    indirection_bytes;
    ert_bytes;
    alt_bytes;
    crt_bytes;
    total_bytes = indirection_bytes +. ert_bytes +. alt_bytes +. crt_bytes;
  }
