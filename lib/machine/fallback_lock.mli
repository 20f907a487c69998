(** The global fallback lock, as a reader–writer lock (paper §4.3/§5.1).

    The fallback path acquires it exclusively (coarse-grain mutual
    exclusion). NS-CL and S-CL executions acquire it shared ("read-locked")
    so they can run concurrently with each other but never overlap a fallback
    execution. Speculative transactions do not acquire it — they subscribe:
    the engine aborts every speculating core the moment a writer gets in. *)

type t

val create : unit -> t

val try_write_lock : t -> core:int -> bool
(** Succeeds only when no reader and no writer holds the lock. *)

val try_read_lock : t -> core:int -> bool
(** Succeeds when no writer holds or awaits the lock. Writers are given
    priority to avoid starving the fallback path. *)

val announce_writer : t -> core:int -> unit
(** Register intent to write-lock; blocks new readers until served. *)

val release : t -> core:int -> unit
(** Drop whichever hold [core] has; no-op when it has none. *)

val writer : t -> int option

val writer_held : t -> bool

val readers : t -> int list

val free : t -> bool
