(** Declarative service-level objectives over monitored series.

    A rule is one line of the [.slo] format:

    {v
    # comment                      blank lines and #-comments ignored
    streaming_frame_latency_seconds_p99 < 0.25
    annot_clip_fraction_p95 <= 0.10
    deadline_miss_rate < 0.05
    backlight_switches_per_s < 6.0
    power_cpu_mj < 2000
    v}

    The left-hand selector is a metric name plus an optional stat
    suffix deciding where the reading comes from:

    - [_pNN] — quantile NN of the registry histogram family of that
      name ([_p50] → 0.50, [_p99] → 0.99, [_p999] → 0.999), read from
      the sketches monitoring attaches; the worst labelled series is
      gated.
    - [_per_s] — the monitor's windowed counter series of that name
      divided by the window duration in simulated seconds.
    - [_rate] — windowed counter divided by the windowed [frames]
      counter (a per-frame miss ratio); skipped in windows with no
      frames.
    - no suffix — the monitor gauge series of that name, most recent
      value.

    Only [_pNN] reads the registry; every other selector names a
    {!Monitor} series ({!Monitor.declared_series}).

    Operators: [<], [<=], [>], [>=], [==] (exact equality, for
    integer-valued gauges like [annot_records_corrupt_total == 0]).
    The rule holds when [reading op threshold] is true. *)

type stat =
  | Quantile of float
  | Rate_per_s
  | Ratio_per_frame
  | Last

type op = Lt | Le | Gt | Ge | Eq

type rule = {
  metric : string;  (** base name, stat suffix stripped *)
  stat : stat;
  op : op;
  threshold : float;
  source : string;  (** the line as written, for reports *)
}

val parse_line : string -> (rule option, string) result
(** [Ok None] for blank lines and comments. *)

val parse : string -> (rule list, string) result
(** Whole-document parse; errors carry 1-based line numbers. *)

val load : path:string -> (rule list, string) result

val of_string_exn : string -> rule
(** Parse one rule, raising [Invalid_argument] — for building rule
    lists in code. *)

val defaults : quality:float -> rule list
(** The built-in gate used when no [--slo] file is given: frame
    latency p99, clip-fraction p95 against the session's
    clipped-pixel budget [quality] (a fraction), deadline-miss rate
    and backlight switch rate. *)

val op_name : op -> string

val holds : op -> value:float -> threshold:float -> bool

val pp : Format.formatter -> rule -> unit
