(* Gc.quick_stat's major_words lags behind the allocation (on OCaml 5.1 it
   moves with the minor heap's size); these counters do not. *)
let allocated_words () =
  let minor = Gc.minor_words () in
  let _, promoted, major = Gc.counters () in
  minor +. major -. promoted

let at_link = allocated_words ()
