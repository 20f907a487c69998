let default_jobs () = max 1 (Domain.recommended_domain_count () - 1)

let clamp_jobs ?(context = "pool") n =
  let cap = Domain.recommended_domain_count () in
  if n > cap then begin
    Printf.eprintf
      "[%s] --jobs %d exceeds this host's recommended domain count %d; clamping to %d\n%!" context
      n cap cap;
    cap
  end
  else n

let parallel_map ~jobs f xs =
  if jobs <= 1 || List.compare_length_with xs 2 < 0 then List.map f xs
  else begin
    let arr = Array.of_list xs in
    let n = Array.length arr in
    let out = Array.make n None in
    let next = Atomic.make 0 in
    let error = Atomic.make None in
    let rec work () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        (match f arr.(i) with
        | v -> out.(i) <- Some v
        | exception e ->
            let bt = Printexc.get_raw_backtrace () in
            ignore (Atomic.compare_and_set error None (Some (e, bt))));
        work ()
      end
    in
    List.iter Domain.join (List.init (min jobs n) (fun _ -> Domain.spawn work));
    Option.iter (fun (e, bt) -> Printexc.raise_with_backtrace e bt) (Atomic.get error);
    List.map Option.get (Array.to_list out)
  end
