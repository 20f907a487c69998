(** Per-domain free lists of [int array] pages, keyed by length.

    A simulation allocates its cache, directory, store and conflict-map
    pages directly in the major heap, and nearly all of them become garbage
    the moment it ends. On a domain that runs many short simulations back
    to back, handing a finished engine's pages to the next one replaces
    that churn (and the major collections it drives) with a refill.

    Each domain has its own pool ([Domain.DLS]), so taking and giving never
    synchronise; a pool dies with its domain. Owners give a page back only
    when nothing can read it any more: the pool cannot tell. *)

val take : len:int -> fill:int -> int array
(** A page of [len] words, every word [fill]: a recycled page of that
    length when this domain's pool holds one, a fresh one otherwise. *)

val give : int array -> unit
(** Return a page to this domain's pool. The caller must drop every
    reference to it: the next {!take} of its length hands it out again. *)

val give_table : int array array -> empty:int array -> unit
(** Give every page of a page table back, except the shared [empty] page,
    and point each slot at [empty]. *)
