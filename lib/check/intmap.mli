(** A small int-to-int map on flat int arrays: open addressing with linear
    probing and backward-shift deletion, sized to its contents (load kept
    at most one half). Built for the checker's short-lived sets — the lines
    locked right now, the words where replayed memory differs from the
    simulation's — which stay small and cache-resident, where a table
    indexed by line or address would not. Nothing is allocated except when
    the table grows. Keys must be [>= 0]. *)

type t

val create : unit -> t

val slot : t -> int -> int
(** The slot holding the key, or -1 when absent. *)

val value : t -> int -> int
(** The value in a slot returned by {!slot}. *)

val replace : t -> int -> int -> unit

val add : t -> int -> int -> unit
(** Bind the key unless it is already bound. *)

val remove : t -> int -> unit
(** No-op when the key is absent. *)

val iter : t -> (int -> int -> unit) -> unit
(** In slot order, which is unspecified. *)
