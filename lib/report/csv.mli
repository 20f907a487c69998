(** CSV export of harness tables, for plotting the figures externally. *)

val escape : string -> string
(** RFC-4180-style quoting: fields containing commas, quotes or newlines are
    wrapped in double quotes with inner quotes doubled. *)

val of_table : Table.t -> string
(** Header + data rows of a harness table (separators dropped). *)

val save : path:string -> Table.t -> unit
(** Write [of_table] to a file. *)
