(** Optional execution tracing.

    A bounded ring of per-core lifecycle events (attempt begins, mode
    transitions, commits, aborts, lock activity). Tracing is off unless an
    engine is created with a trace; recording is O(1) and keeps only the most
    recent [capacity] events, so it is safe to leave on for long runs when
    debugging a livelock or an unexpected abort pattern. *)

type kind =
  | Begin_attempt of { attempt : int; mode : string }
  | Enter_failed_mode
  | Converted of string  (** decision-tree outcome for the retry *)
  | Locked of Mem.Addr.line
  | Unlocked of Mem.Addr.line  (** released at the holder's commit/abort *)
  | Commit of { mode : string; retries : int }
  | Aborted of Abort.cause

type event = { time : int; core : int; ar : string; kind : kind }

type t

val create : ?capacity:int -> unit -> t
(** Default capacity: 4096 events. *)

val record : t -> time:int -> core:int -> ar:string -> kind -> unit

val events : t -> event list
(** Chronological (oldest first), at most [capacity]. *)

val recorded : t -> int
(** Total events ever recorded (including overwritten ones). *)

val retained : t -> int
(** Events still in the ring (≤ capacity and ≤ {!recorded}). *)

val dump : ?limit:int -> t -> Format.formatter -> unit
(** Print the most recent [limit] events (default: everything retained).
    [limit] is clamped to the retained count. *)

val to_chrome_json : t -> string
(** Export the retained events in Chrome's trace_event JSON format (load in
    [chrome://tracing] or Perfetto). One Chrome process per simulated core;
    each event is an instant at its simulated cycle. *)
