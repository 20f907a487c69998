(** Abort causes and their Figure 11 categories. *)

type cause =
  | Memory_conflict  (** another core's request invalidated our set *)
  | Nacked  (** our request hit a locked line or a protected transaction *)
  | Explicit_fallback  (** fallback lock found taken when starting *)
  | Other_fallback  (** another thread took the fallback lock mid-flight *)
  | Capacity  (** speculative footprint exceeded the L1 *)
  | Scl_deviation
      (** S-CL access left the learned footprint and conflicted *)
  | Other  (** exceptions, interrupts, ... *)

type category = Cat_memory_conflict | Cat_explicit_fallback | Cat_other_fallback | Cat_others

val category : cause -> category
(** Figure 11 buckets: nacks and S-CL deviations are memory conflicts;
    capacity and miscellaneous aborts are "Others". *)

val counts_toward_retry_limit : cause -> bool
(** The paper's retry counter ignores fallback-lock aborts — which is why
    some applications exceed the nominal maximum retries. *)

val all_causes : cause list
(** Every cause, in declaration order. *)

val cause_name : cause -> string

val category_name : category -> string

val all_categories : category list
