(** Minimal JSON document builder and serialiser for machine-readable
    reports ([clear_sim analyze --json], [clear_sim lint --json]). Emission
    only: no reader is provided. The one consumer that reads JSON back,
    [bench/gate.ml]'s [values_of], scans flat rows for a key by hand. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact single-line rendering with standard string escaping. *)

val to_string_pretty : t -> string
(** Two-space indented rendering, for human-facing [--json] output. *)
