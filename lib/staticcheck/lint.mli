(** Severity-tagged diagnostics over AR bodies.

    Error-severity findings ([target-range], [absurd-offset], [div-zero] on
    a constant zero, [missing-halt]) indicate bodies that are broken or
    could never validate; warnings flag suspicious-but-legal constructs
    (unreachable code, dead register writes, untagged regions, negative
    offsets, possibly-zero divisors); info marks what the analyzer simply
    cannot prove. [clear_sim lint] exits non-zero only on errors. *)

type severity = Error | Warning | Info

type diag = {
  severity : severity;
  ar : string;
  index : int option;  (** instruction index, when the finding is localised *)
  code : string;  (** stable machine-readable identifier, e.g. ["dead-write"] *)
  message : string;
}

val errors : diag list -> int

val check_body : ?name:string -> ?regions:(string * (int * int)) list -> Isa.Instr.t array -> diag list
(** Works on raw bodies, including ones {!Isa.Instr.validate} rejects.
    [regions] is the region→word-extent table ({!Isa.Program.ar} [regions]);
    with it, lint also flags windows escaping their declared extent
    ([region-escape]) and unresolvable sites in extent-free regions
    ([region-no-extent], which degrade the may-conflict cover to any-line). *)

val check_ar : Isa.Program.ar -> diag list

val pp_diag : Format.formatter -> diag -> unit

val to_json : diag list -> Report.Json.t

val broken_demo : Isa.Instr.t array
(** A deliberately broken body hitting every error-severity check; used by
    [clear_sim lint --broken-demo] and the tests. *)
