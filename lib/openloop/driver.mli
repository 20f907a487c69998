(** One open-system load point: run a configuration carrying an
    {!Machine.Config.open_queue} and fold the request lifecycle into a
    latency report. *)

type t = {
  workload : string;
  preset : string;
  retries : int;
  rate : float;  (** offered load, requests per 1000 cycles *)
  process : string;
  seed : int;
  total_cycles : int;
  commits : int;
  requests : int;  (** requests generated by the arrival process *)
  admitted : int;
  dropped : int;
  completed : int;
  qdepth_hw : int;
  sojourn : Report.Percentile.t option;  (** enqueue → commit latency *)
  wait : Report.Percentile.t option;  (** enqueue → dispatch latency *)
  checked : bool;
  stream : bool;
      (** equal to [checked]: a checked point always runs the oracles
          online ({!Check.Stream}); kept so the JSON schema is unchanged *)
  oracle_ok : bool;  (** vacuously [true] when [checked] is [false] *)
  events : int;  (** engine events popped — the oracle's stream length scale *)
  check_live_lines : int;
      (** streaming-checker live-line high-water mark; 0 unless [checked] *)
  check_retired : int;
      (** checker entries retired behind the committed frontier; 0 unless
          [checked] *)
}

val run_point :
  ?check:bool ->
  ?stream:bool ->
  Machine.Config.t ->
  Machine.Workload.t ->
  t
(** Runs one simulation. [check] (default [false]) attaches the execution
    oracle collector and records the verdict in [oracle_ok]; capture never
    perturbs simulated behaviour, so latency numbers are identical either
    way. The oracles run online with bounded memory ({!Check.Stream}), and
    the [check_live_lines]/[check_retired] fields report the checker's
    memory behaviour. [stream] is ignored: it is accepted so existing
    callers compile, since checked points always stream. Raises
    [Invalid_argument] when the configuration has no open queue. *)

val to_json : t -> Report.Json.t
(** Stable field order; [sojourn]/[wait] are percentile blocks or [null]
    when no request completed/dispatched. *)
