(** Structured, leveled event logging with pluggable sinks.

    An event carries a level, a scope (subsystem name), a message and
    optional structured fields. Nothing is formatted or allocated
    unless observability is enabled, the level clears the threshold
    {e and} at least one sink is attached — the lazy [debug]/[info]/…
    entry points take a closure so disabled call sites cost one check. *)

type level = Debug | Info | Warn | Error

val level_name : level -> string

type event = {
  ts_ns : int64;
      (** {!Clock} reading: nanoseconds from the clock's arbitrary
          origin, not the Unix epoch *)
  level : level;
  scope : string;
  message : string;
  fields : (string * Json.t) list;
}

val event_to_json : event -> Json.t

(** {1 Sinks} *)

type sink_id

val attach : (event -> unit) -> sink_id
(** Attach a custom sink; it receives every event that clears the
    level threshold. *)

val detach : sink_id -> unit

val attach_jsonl : path:string -> sink_id
(** JSONL file sink; each event is one JSON object per line, flushed
    on write. Detaching closes the file. *)

val attach_ring : capacity:int -> sink_id * (unit -> event list)
(** In-memory ring buffer keeping the last [capacity] events, oldest
    first on read — intended for tests. *)

(** {1 Emission} *)

val set_level : level -> unit
(** Minimum level that reaches the sinks; default [Info]. *)

val get_level : unit -> level

val would_log : level -> bool
(** True when an event at this level would reach at least one sink. *)

val emit : level -> scope:string -> ?fields:(string * Json.t) list -> string -> unit

val debug : scope:string -> (unit -> string * (string * Json.t) list) -> unit
val info : scope:string -> (unit -> string * (string * Json.t) list) -> unit
val warn : scope:string -> (unit -> string * (string * Json.t) list) -> unit
val error : scope:string -> (unit -> string * (string * Json.t) list) -> unit
