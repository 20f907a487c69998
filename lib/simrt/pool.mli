(** Parallel map over OCaml 5 domains.

    The simulator itself is single-threaded and deterministic; [parallel_map]
    parallelises *independent* simulations (one per (config, workload, seed))
    across host cores. Each job builds its own state, so running the same
    task list at any job count yields bit-identical results in the same
    order. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count () - 1] (the submitting domain keeps a
    core), never below 1. *)

val clamp_jobs : ?context:string -> int -> int
(** Clamp a user-supplied positive [--jobs] value to the host's recommended
    domain count, with a warning tagged [context] when it exceeds it (extra
    domains only add scheduling overhead); otherwise return it unchanged. *)

val parallel_map : jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [parallel_map ~jobs f xs] applies [f] to every element of [xs] on
    [min jobs (length xs)] freshly spawned domains, which pull indices from
    one shared counter, and returns the results in input order. If any
    application raises, the first recorded exception is re-raised with its
    backtrace on the calling domain once every domain has been joined.
    [jobs <= 1] (or fewer than two elements) runs inline on the calling
    domain, spawning nothing. *)
