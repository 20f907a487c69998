(** The scheduler-scenario registry.

    Each scenario is a named {!Profile.t} capturing one contention shape the
    symmetric machine cannot express: a pinned hot core, heavy-tailed think
    skew, a two-socket latency split, or phased thread arrival. The registry
    backs [clear_sim sched], the [--sched] flag on suite/bench runs, and the
    golden-fingerprint tables in [test/test_sched.ml]. *)

val symmetric : Profile.t
(** {!Profile.symmetric}: the baseline every other scenario is compared to. *)

val hot_core : Profile.t
(** One core pinned hot: near-zero think and twice the operations, so it
    collides with everyone and stresses the bounded-retry path. *)

val numa2x : Profile.t
(** Two sockets; remote-slice accesses pay a 2x-ish latency adder, widening
    conflict windows for the far socket. *)

val all : (string * Profile.t) list
(** Every scenario, baseline first, in presentation order. *)

val names : string list

val find : string -> Profile.t option
(** Lookup by name, e.g. [find "numa2x"]. *)

val find_exn : string -> Profile.t
(** Like {!find} but raises [Invalid_argument] listing valid names. *)
