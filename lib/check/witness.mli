(** A witness of one committed atomic-region attempt.

    The engine emits one witness per commit (when capture is on), recording
    everything the oracles need: when and where the AR committed, which mode
    committed it, its read/write footprint with first-access times, and the
    exact store log it drained into memory. Capture is O(footprint) per
    attempt; aborted attempts leave no witness.

    The engine hands witnesses over as borrowed {!Capbuf.t} views, valid
    only during the callback that receives them. A [t] is the retained,
    immutable form: what hand-built histories and the tests' post hoc
    reference hold. A {!header} is the part of a witness a violation report
    names; the streaming checker keeps only headers of live witnesses. *)

type mode = Speculative | Scl | Nscl | Fallback

val mode_buffered : mode -> bool
(** Buffered modes (HTM speculation, S-CL) publish their writes atomically at
    commit time; direct modes (NS-CL, fallback) write the store as they
    execute, so their writes become visible at first-write time. *)

val mode_name : mode -> string
(** The one spelling of a mode, shared by violation reports, the engine
    trace and the CLI: ["speculative"], ["S-CL"], ["NS-CL"], ["fallback"]. *)

type header = {
  seq : int;  (** commit order index, assigned by the collector *)
  time : int;  (** simulated cycle of the commit *)
  core : int;
  ar : Isa.Program.ar;
  mode : mode;
  retries : int;  (** aborted attempts preceding this commit *)
  n_reads : int;  (** distinct lines read *)
  n_writes : int;  (** distinct lines written *)
}

val pp_header : Format.formatter -> header -> unit
(** One-line summary: [#seq t=time core=c mode AR (xR/yW)]. *)

type t = {
  seq : int;
  time : int;
  core : int;
  ar : Isa.Program.ar;
  init_regs : (Isa.Instr.reg * int) list;
  mode : mode;
  retries : int;
  reads : (Mem.Addr.line * int) list;
      (** footprint lines read, with first-read cycle, sorted by line *)
  writes : (Mem.Addr.line * int) list;
      (** footprint lines written, with first-write cycle, sorted by line *)
  stores : (Mem.Addr.t * int) list;
      (** drained (address, value) store log in program order *)
}

val header : t -> header

val visibility : t -> Mem.Addr.line -> int
(** Cycle at which this witness's write to [line] became visible to other
    cores: commit time for buffered modes, first-write time for direct
    modes. Raises [Not_found] if the witness did not write [line]. *)
