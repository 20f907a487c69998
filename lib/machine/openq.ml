type t = {
  arrival_t : int array;
  dispatch_t : int array;
  commit_t : int array;
  dropped : bool array;
  cap : int;
  backlog : int Queue.t;
  mutable next_idx : int;
  mutable admitted : int;
  mutable n_dropped : int;
  mutable completed : int;
  mutable qdepth_hw : int;
}

(* The whole arrival schedule is drawn up front from a dedicated RNG split:
   the draw count depends only on (rate, requests, process), never on how
   the simulation unfolds, so the stream stays bit-stable per seed. *)
let generate ~rate ~requests ~process rng =
  let mean = 1000.0 /. rate in
  let step =
    match (process : Config.open_process) with
    | Config.Open_poisson ->
        fun () ->
          (* Clamp the draw away from 1.0: [Rng.float] covers [0, 1), so
             log (1 - u) can reach -inf and int_of_float of a non-finite
             float is unspecified. The clamp caps a gap at ~13.8 means —
             beyond any plausible sample — and leaves every draw below the
             threshold, i.e. all but ~1 in 10^6, bit-identical. *)
          let u = Float.min (Simrt.Rng.float rng 1.0) 0.999999 in
          max 1 (int_of_float (Float.round (-.mean *. log (1.0 -. u))))
    | Config.Open_burst { heat } ->
        (* E[lo + span * u^(1+heat)] = lo + span/(2+heat); pick the span so
           the mean interarrival matches the Poisson case at equal rate. *)
        let lo = 1 in
        let span = max 0 (int_of_float (Float.round ((mean -. 1.0) *. (2.0 +. heat)))) in
        let dist = Sched.Profile.Burst { lo; hi = lo + span; heat } in
        fun () -> Sched.Profile.sample_dist dist ~base:0 rng
  in
  let arr = Array.make requests 0 in
  let t = ref 0 in
  for i = 0 to requests - 1 do
    t := !t + max 1 (step ());
    arr.(i) <- !t
  done;
  arr

let create (q : Config.open_queue) rng =
  let n = q.open_requests in
  {
    arrival_t = generate ~rate:q.open_rate ~requests:n ~process:q.open_process rng;
    dispatch_t = Array.make n (-1);
    commit_t = Array.make n (-1);
    dropped = Array.make n false;
    cap = q.open_queue_cap;
    backlog = Queue.create ();
    next_idx = 0;
    admitted = 0;
    n_dropped = 0;
    completed = 0;
    qdepth_hw = 0;
  }

let admit_until t ~now =
  let n = Array.length t.arrival_t in
  while t.next_idx < n && t.arrival_t.(t.next_idx) <= now do
    let i = t.next_idx in
    t.next_idx <- i + 1;
    if t.cap > 0 && Queue.length t.backlog >= t.cap then (
      t.dropped.(i) <- true;
      t.n_dropped <- t.n_dropped + 1)
    else (
      Queue.add i t.backlog;
      t.admitted <- t.admitted + 1;
      let d = Queue.length t.backlog in
      if d > t.qdepth_hw then t.qdepth_hw <- d)
  done

let dispatch t ~now =
  match Queue.take_opt t.backlog with
  | None -> None
  | Some i ->
      t.dispatch_t.(i) <- now;
      Some i

let complete t ~req ~now =
  if t.commit_t.(req) >= 0 then invalid_arg "Openq.complete: request completed twice";
  t.commit_t.(req) <- now;
  t.completed <- t.completed + 1

let next_arrival t =
  if t.next_idx < Array.length t.arrival_t then t.arrival_t.(t.next_idx) else max_int

let backlog_depth t = Queue.length t.backlog

let exhausted t = t.next_idx >= Array.length t.arrival_t && Queue.is_empty t.backlog

let total t = Array.length t.arrival_t

let admitted t = t.admitted

let dropped t = t.n_dropped

let completed t = t.completed

let qdepth_hw t = t.qdepth_hw

let last_arrival t =
  let n = Array.length t.arrival_t in
  if n = 0 then 0 else t.arrival_t.(n - 1)

(* Two passes over [upto] — count, then fill — so the result is built in
   place rather than through an intermediate list. *)
let samples t ~upto =
  let n = ref 0 in
  for i = 0 to Array.length t.commit_t - 1 do
    if upto i >= 0 then incr n
  done;
  let out = Array.make !n 0 in
  let k = ref 0 in
  for i = 0 to Array.length t.commit_t - 1 do
    let v = upto i in
    if v >= 0 then begin
      out.(!k) <- v - t.arrival_t.(i);
      incr k
    end
  done;
  out

let sojourns t = samples t ~upto:(fun i -> t.commit_t.(i))

let waits t = samples t ~upto:(fun i -> t.dispatch_t.(i))
