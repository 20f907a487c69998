type t = {
  commits : int;
  serial : (unit, Serial.violation) result;
  replay : (unit, Replay.divergence) result;
  locks : (unit, Lock_safety.violation) result;
  static_ : (unit, Staticcheck.Gate.violation) result option;
}

let ok t =
  Result.is_ok t.serial && Result.is_ok t.replay && Result.is_ok t.locks
  && match t.static_ with None -> true | Some r -> Result.is_ok r

let of_stream stream ~final =
  let r = Stream.finish stream ~final in
  {
    commits = r.Stream.commits;
    serial = r.Stream.serial;
    replay = r.Stream.replay;
    locks = r.Stream.locks;
    static_ = r.Stream.static_;
  }

let pp_oracle fmt name pp_err = function
  | Ok () -> Format.fprintf fmt "@ %-16s PASS" name
  | Error e -> Format.fprintf fmt "@ %-16s FAIL@   @[%a@]" name pp_err e

let pp fmt t =
  Format.fprintf fmt "@[<v2>check: %d committed attempt(s)%s"
    t.commits
    (if ok t then " — all oracles passed" else "");
  pp_oracle fmt "serializability" Serial.pp_violation t.serial;
  pp_oracle fmt "replay" Replay.pp_divergence t.replay;
  pp_oracle fmt "lock-safety" Lock_safety.pp_violation t.locks;
  (match t.static_ with
  | None -> ()
  | Some r -> pp_oracle fmt "static-gate" Staticcheck.Gate.pp_violation r);
  Format.fprintf fmt "@]"

let to_string t = Format.asprintf "%a" pp t
