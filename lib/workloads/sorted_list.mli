(** sorted-list: singly linked sorted list (paper Listing 3).

    [count_matching] walks the whole list, [insert] walks to the insertion
    point — both mutable footprints through [list.next]. [update_stats] is
    the immutable third AR: a plain counter update at a pre-computed
    address. *)

val workload : Machine.Workload.t
(** 10 preloaded keys from a universe of 24, which bounds the list length:
    traversal footprints hover around the ALT capacity, so conversion
    eligibility is exercised both ways. *)
