(** Address arithmetic.

    The simulated machine is word-addressed: an address names one 64-bit word
    of the shared memory. Cachelines are 64 bytes, i.e. 8 consecutive words.
    Lines are identified by {!line_of}, which shifts the address right by
    3 bits (arithmetically, so a negative bound rounds down). *)

type t = int
(** A word address. Non-negative. *)

type line = int
(** A cacheline number. *)

val words_per_line : int
(** 8: a 64-byte line holds 8 words. *)

val line_of : t -> line
(** Cacheline containing a word address. *)

val line_base : line -> t
(** First word address of a line. *)

val line_offset : t -> int
(** Offset of the word within its line, in [\[0, words_per_line)]. *)

val same_line : t -> t -> bool
