(** Shared building blocks for the benchmark workloads.

    Register conventions: [r0]–[r7] are AR inputs set by the driver, [r8] and
    above are temporaries. Per-thread mailboxes give read-style ARs somewhere
    private to deposit results (one line per thread, so mailbox stores never
    conflict). *)

val reg : int -> Isa.Instr.operand

val imm : int -> Isa.Instr.operand

val mailboxes : Layout.t -> threads:int -> Mem.Addr.t array
(** One line-aligned result slot per thread, tagged region "mailbox". *)

val fetch_add_ar :
  ?regions:(string * (int * int)) list -> id:int -> name:string -> region:string -> unit -> Isa.Program.ar
(** [r0] = counter address, [r1] = delta: load, add, store. No indirection —
    statically immutable. *)

val dir_update_ar :
  ?regions:(string * (int * int)) list ->
  id:int ->
  name:string ->
  dir_region:string ->
  record_region:string ->
  fields:(int * [ `Add_reg of int | `Set_reg of int ]) list ->
  unit ->
  Isa.Program.ar
(** [r0] = address of a directory slot holding a record pointer. The AR loads
    the pointer (the directory is never written inside ARs, so the
    indirection is through read-only data — "likely immutable") and
    updates the given record fields: [(offset, `Add_reg r)] does
    [rec\[offset\] += regs\[r\]]; [`Set_reg] overwrites. *)

val dir_read_ar :
  ?regions:(string * (int * int)) list ->
  id:int ->
  name:string ->
  dir_region:string ->
  record_region:string ->
  offsets:int list ->
  mailbox_reg:int ->
  unit ->
  Isa.Program.ar
(** Like {!dir_update_ar} but read-only on the record: sums the words at
    [offsets] and stores the result to the mailbox address in
    [mailbox_reg]. *)

val max_threads : int
(** Upper bound used when sizing per-thread structures: the simulator's
    core-count ceiling, {!Mem.Directory.max_cores}. *)

(** Zipf popularity skew tiers. One shared vocabulary instead of magic
    floats duplicated per driver; the numeric values are unchanged from the
    historical defaults, so golden fingerprints are unaffected. *)

val zipf_theta_heavy : float
(** 0.6 — strongly skewed key popularity (bitcoin's hot wallets). *)

val zipf_theta_default : float
(** 0.4 — the common moderate skew (arrayswap, vacation, intruder). *)

val zipf_theta_light : float
(** 0.3 — mild skew (yada, kmeans). *)
