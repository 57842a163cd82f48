(** The one diagnostic currency of the static-verification layer.

    Both halves of [lib/check] — the source linter ({!Lint}) and the
    artifact verifier ({!Artifact}) — report findings as values of
    this type, so the CLI, the JSON emitter and the tests share a
    single rendering and a single severity policy: [Error] fails the
    build ([lint] exits non-zero), [Warning] and [Info] inform.

    Codes are stable identifiers: [L001]… for lint rules, [V001]… for
    artifact checks. They never get renumbered; retired codes are
    retired forever. *)

type severity = Error | Warning | Info

type t = {
  code : string;  (** stable code, e.g. ["L004"] or ["V108"] *)
  severity : severity;
  file : string;
  line : int;  (** 1-based; 0 when the finding has no location *)
  col : int;  (** 0-based column, as compilers print them *)
  message : string;
}

val v :
  code:string -> severity:severity -> file:string -> ?line:int -> ?col:int ->
  string -> t
(** [v ~code ~severity ~file msg] builds a diagnostic; [line] defaults
    to 0 (whole file), [col] to 0. *)

val severity_name : severity -> string
(** ["error"], ["warning"], ["info"] — also the JSON encoding. *)

val is_error : t -> bool

val errors : t list -> int
(** Number of [Error]-severity diagnostics. *)

val warnings : t list -> int

val compare : t -> t -> int
(** Orders by file, line, column, code, message — the deterministic
    report order. *)

val pp : Format.formatter -> t -> unit
(** [file:line:col: severity code: message] — the grep-able one-line
    form, clickable in editors. *)

val to_json : t -> Obs.Json.t
(** [{"file": …, "line": …, "col": …, "code": …, "severity": …,
    "message": …}] — the schema documented in README "Static
    checks". *)
