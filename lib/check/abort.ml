type cause =
  | Memory_conflict
  | Nacked
  | Explicit_fallback
  | Other_fallback
  | Capacity
  | Scl_deviation
  | Other

type category = Cat_memory_conflict | Cat_explicit_fallback | Cat_other_fallback | Cat_others

let category = function
  | Memory_conflict | Nacked | Scl_deviation -> Cat_memory_conflict
  | Explicit_fallback -> Cat_explicit_fallback
  | Other_fallback -> Cat_other_fallback
  | Capacity | Other -> Cat_others

let counts_toward_retry_limit = function
  | Memory_conflict | Nacked | Capacity | Scl_deviation | Other -> true
  | Explicit_fallback | Other_fallback -> false

let cause_name = function
  | Memory_conflict -> "memory-conflict"
  | Nacked -> "nacked"
  | Explicit_fallback -> "explicit-fallback"
  | Other_fallback -> "other-fallback"
  | Capacity -> "capacity"
  | Scl_deviation -> "scl-deviation"
  | Other -> "other"

let category_name = function
  | Cat_memory_conflict -> "Memory Conflict"
  | Cat_explicit_fallback -> "Explicit Fallback"
  | Cat_other_fallback -> "Other Fallback"
  | Cat_others -> "Others"

let all_categories = [ Cat_memory_conflict; Cat_explicit_fallback; Cat_other_fallback; Cat_others ]
