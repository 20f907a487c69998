(** The attempt lifecycle, and the lock-safety invariants checked over it.

    The engine emits one complete, ordered stream of these events when it
    has a collector: every attempt's begin, its entry into failed-mode
    discovery, each cacheline lock and its release, and the attempt's end
    with its outcome. Each event has exactly one emission site in the
    engine. The streaming checker and the execution trace ([Machine.Trace])
    both consume this one stream.

    CLEAR's cacheline-lock machinery must uphold three invariants, checked
    here from the complete stream (the trace's bounded ring may drop
    events; the stream never does):

    - {b mutual exclusion}: a line is never locked by two cores at once;
    - {b lexicographic acquisition}: within one attempt, ALT locks are taken
      in non-decreasing directory-set-index order (the deadlock-avoidance
      argument of the paper relies on this total order);
    - {b complete release}: every lock taken during an attempt is released by
      the matching commit or abort — nothing leaks past [Attempt_end], and
      nothing is unlocked that was never locked.

    The checks read only the time, core, line and key: the AR, mode and
    attempt index of a begin, the outcome of an end, and [Failed_mode] as a
    whole are there for the trace. *)

type outcome =
  | Committed of { mode : Witness.mode; retries : int }
      (** [retries]: the aborts that counted toward the retry limit *)
  | Aborted of Abort.cause

type event =
  | Attempt_begin of { time : int; core : int; ar : Isa.Program.ar; mode : Witness.mode; attempt : int }
      (** [attempt] is the 0-based attempt index of the current operation. *)
  | Failed_mode of { time : int; core : int }
      (** A conflict turned the speculative attempt into failed-mode
          discovery, which runs on to the region's end. *)
  | Lock of { time : int; core : int; line : Mem.Addr.line; key : int }
      (** [key] is the lexicographic acquisition key (directory set index). *)
  | Unlock of { time : int; core : int; line : Mem.Addr.line }
      (** Released at the holder's commit or abort, before its [Attempt_end]. *)
  | Attempt_end of { time : int; core : int; outcome : outcome }

type violation = { time : int; core : int; reason : string }

val pp_violation : Format.formatter -> violation -> unit

type t

val create : cores:int -> t

val add : t -> event -> (unit, violation) result
(** Feed events in emission order. After an [Error] the state is undefined. *)

val finish : t -> (unit, violation) result
(** End-of-run check: no core may still hold a lock. *)

val check : cores:int -> event list -> (unit, violation) result
(** [add] every event, then [finish]. *)
