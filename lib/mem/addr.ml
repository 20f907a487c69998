type t = int

type line = int

let words_per_line = 8

let line_shift = 3

let line_of a = a asr line_shift

let line_base l = l lsl line_shift

let line_offset a = a land (words_per_line - 1)

let same_line a b = line_of a = line_of b
