(** hashmap: chained hash map. The bucket is hashed outside the AR (the
    driver passes the bucket-head address), but insert/lookup/remove all
    chase chain pointers that other ARs rewrite — three mutable ARs, as in
    paper Table 1. Node layout: [\[key; value; next\]], one line per node;
    one bucket head per line. *)

val workload : Machine.Workload.t
