(** ASCII tables for the benchmark harness output.

    Every figure/table of the paper is regenerated as rows printed by this
    module, so the harness output is diffable and easy to eyeball against
    the paper's plots. *)

type t

val create : title:string -> columns:string list -> t

val add_row : t -> string list -> unit
(** Must match the column count; raises [Invalid_argument] otherwise. *)

val add_separator : t -> unit
(** A rule between rows; one with no row after it prints nothing. *)

val print : t -> unit
(** To stdout, with aligned columns. *)

val to_string : t -> string

val title : t -> string

val header : t -> string list
(** The column names. *)

val rows : t -> string list list
(** Data rows in insertion order, separators dropped (CSV export). *)

val f2 : float -> string
(** Two-decimal rendering. *)

val f3 : float -> string

val pct : float -> string
(** [0.354] -> ["35.4%"]. *)
