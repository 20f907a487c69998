(** Combined result of the oracles over one run. *)

type t = {
  commits : int;  (** witnesses checked *)
  serial : (unit, Serial.violation) result;
  replay : (unit, Replay.divergence) result;
  locks : (unit, Lock_safety.violation) result;
  static_ : (unit, Staticcheck.Gate.violation) result option;
      (** static-vs-dynamic soundness gate; [None] when the checker was
          created without one *)
}

val ok : t -> bool

val of_stream : Stream.t -> final:Mem.Store.image -> t
(** Close a streaming checker ({!Stream.finish}) and package its results.
    The tests hold this verdict, field for field and including which
    violation is reported first, equal to a post hoc reference that retains
    every witness and runs {!Serial.check}, a {!Replay.start} replay,
    {!Lock_safety.check} and the static gate over the whole history
    (DESIGN.md §14). *)

val pp : Format.formatter -> t -> unit
(** Multi-line report: one PASS/FAIL line per oracle, violation details on
    failure. *)

val to_string : t -> string
