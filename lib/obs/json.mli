(** Minimal self-contained JSON values.

    The observability layer renders metric snapshots, trace events and
    monitor reports as JSON without pulling a serialisation
    dependency into the build. The renderer escapes strings per RFC
    8259; the reader accepts exactly what the renderer emits (plus
    insignificant whitespace), which is all the round-trip tests and
    the snapshot loader need. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact rendering. Floats are printed with enough digits to
    round-trip through {!of_string} exactly. *)

val pp : Format.formatter -> t -> unit
(** Same output as {!to_string}. *)

val of_string : string -> (t, string) result
(** Parse a single JSON value; trailing garbage is an error. *)

val member : string -> t -> t option
(** [member key json] looks a key up in an [Obj]; [None] otherwise. *)
