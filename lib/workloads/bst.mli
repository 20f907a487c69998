(** bst: unbalanced binary search tree with insert / contains / lazy delete.

    All three ARs traverse node links that other ARs rewrite, so their
    footprints are mutable (paper Table 1 classifies all bst ARs mutable);
    while the tree is small they still fit the ALT and can retry under S-CL,
    the behaviour the paper points out for bst in Figure 12. Deletion is
    lazy (an [alive] flag), the standard concurrent-BST idiom — structural
    unlinks would turn the left spine into a global hotspot. Node layout:
    one line per node, [\[key; left; right; alive\]]. *)

val workload : Machine.Workload.t
(** 96 preloaded keys from a universe of 1024, and 512 pre-allocated nodes
    per thread (inserts beyond that degrade to lookups). *)
