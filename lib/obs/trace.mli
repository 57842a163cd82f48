(** Span tracing.

    [with_span] times a region on the monotone clock and records it in
    a per-run trace tree; nested calls become child spans. When
    observability is disabled the callback runs directly — no clock
    reads, no allocation. The accumulated tree renders as a
    flame-style text dump or exports as Chrome [trace_event] JSON
    (load the file at chrome://tracing or https://ui.perfetto.dev). *)

type span = {
  name : string;
  attrs : (string * string) list;
  start_ns : int64;
  duration_ns : int64;
  children : span list;  (** in start order *)
}

val with_span : ?attrs:(string * string) list -> string -> (unit -> 'a) -> 'a
(** Runs the callback inside a new span. Exception-safe: the span is
    closed and recorded even if the callback raises. *)

val roots : unit -> span list
(** Completed top-level spans, in start order. *)

val current_path : unit -> string list
(** Names of the spans currently open on this domain's stack,
    outermost first — the attribution prefix the energy profiler
    files samples under. Empty outside any span. *)

val reset : unit -> unit
(** Drop all recorded spans (start of a fresh run). *)

val span_count : unit -> int
(** Total spans recorded, including children. *)

(** {1 Critical path} *)

type hotspot = {
  h_name : string;  (** span / stage name *)
  h_count : int;  (** occurrences across the trace *)
  h_total_ns : int64;
  h_max_ns : int64;  (** slowest single occurrence *)
}

val critical_path : ?top:int -> unit -> hotspot list
(** The [top] (default 10) stages by total recorded time, worst
    first — a per-stage summary of where the run's wall clock went.
    Ties break on name so the order is deterministic. *)

val hotspots_to_json : hotspot list -> Json.t

val pp_flame : Format.formatter -> unit -> unit
(** Indented tree of the recorded spans with durations and each
    child's share of its parent. *)

(** {1 Chrome export} *)

type counter = {
  c_name : string;  (** counter track name *)
  c_ts_ns : int64;
  c_values : (string * float) list;  (** one stacked value per key *)
}
(** A Chrome [trace_event] counter ("ph":"C") sample — Perfetto draws
    each one as a point on a stacked counter track. *)

val to_chrome_json : ?counters:counter list -> unit -> Json.t
(** The recorded tree as a Chrome [trace_event] array of complete
    ("ph":"X") events; attrs become event [args]. [counters] are
    interleaved as "ph":"C" events, and the combined stream is sorted
    by timestamp so counter tracks render correctly in Perfetto. Each
    event's [ts] is an {!Clock} reading in microseconds, counted from
    the clock's arbitrary origin, not the Unix epoch. *)
