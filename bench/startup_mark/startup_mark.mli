(** The words this process had allocated when the library was linked in. *)

val allocated_words : unit -> float
(** Words allocated so far, minor and major, each counted once. *)

val at_link : float
(** {!allocated_words} when this module initialised: before any module
    linked after it. *)
