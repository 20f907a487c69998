type mode = Ns_cl | S_cl | Speculative_retry

type assessment = { fits_window : bool; lockable : bool; immutable : bool }

let decide a =
  if not a.fits_window then Speculative_retry
  else if not a.lockable then Speculative_retry
  else if a.immutable then Ns_cl
  else S_cl

let mode_name = function Ns_cl -> "NS-CL" | S_cl -> "S-CL" | Speculative_retry -> "speculative"
