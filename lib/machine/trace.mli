(** Execution tracing: a bounded ring over the attempt-lifecycle stream.

    A trace is one more consumer of the stream the engine emits to its
    check collector ({!Check.Lock_safety.event}: attempt begins, failed-mode
    entries, line locks and unlocks, attempt ends with their outcome), plus
    the end-of-discovery decisions that convert a retry to NS-CL or S-CL.
    It has no event vocabulary of its own. Run an engine with
    [~check:(collector tr ~cores)] to trace it; a traced run therefore
    also captures witnesses, which leaves its simulated results unchanged.
    Recording is O(1) and keeps only the most recent [capacity] events, so
    it is safe to leave on for long runs when debugging a livelock or an
    unexpected abort pattern. *)

type kind =
  | Lifecycle of Check.Lock_safety.event
  | Converted of Clear.Decision.mode  (** a decision to retry as NS-CL or S-CL *)

type event = { time : int; core : int; ar : string; kind : kind }
(** [ar] is the name of the AR the core's current attempt runs. *)

type t

val create : ?capacity:int -> unit -> t
(** Default capacity: 4096 events. *)

val collector : t -> cores:int -> Check.Collector.t
(** A collector for {!Engine.create}'s [?check] that records the run's
    lifecycle events and locked-mode conversions into [t] and ignores
    everything else. *)

val events : t -> event list
(** Chronological (oldest first), at most [capacity]. *)

val recorded : t -> int
(** Total events ever recorded (including overwritten ones). *)

val retained : t -> int
(** Events still in the ring (≤ capacity and ≤ {!recorded}). Fewer than
    {!recorded} means the ring overwrote the oldest events. *)

val dump : ?limit:int -> t -> Format.formatter -> unit
(** Print the most recent [limit] events (default: everything retained).
    [limit] is clamped to the retained count. *)

val output_chrome_json : t -> out_channel -> unit
(** Write the retained events to the channel in Chrome's trace_event JSON
    format (load in [chrome://tracing] or Perfetto), one element at a time.
    One Chrome process per simulated core; each event is an instant at its
    simulated cycle. *)
