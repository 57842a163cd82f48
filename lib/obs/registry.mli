(** Process-global metrics registry.

    Instruments are organised into {e families} (one name, one kind,
    one help string) holding one series per label set — the Prometheus
    data model. Handle acquisition ([counter] / [gauge] / [histogram])
    is get-or-create and thread-safe; callers cache the returned
    handle and update it lock-free. [snapshot] produces an immutable
    view that the text and JSON renderers (and the tests) consume. *)

type t

val create : unit -> t

val default : t
(** The process-global registry all library instrumentation uses. *)

val counter :
  ?registry:t -> ?help:string -> string -> (string * string) list ->
  Metrics.Counter.t
(** [counter name labels] returns the counter series for [labels] in
    family [name], creating family and series as needed. Raises
    [Invalid_argument] if [name] exists with a different kind. *)

val gauge :
  ?registry:t -> ?help:string -> string -> (string * string) list ->
  Metrics.Gauge.t

val histogram :
  ?registry:t -> ?help:string -> ?buckets:float array -> string ->
  (string * string) list -> Metrics.Histogram.t
(** [buckets] applies when the family is created; later calls reuse
    the family's buckets. Defaults to {!Metrics.default_time_buckets}. *)

(** {1 Snapshots} *)

type kind = Counter | Gauge | Histogram

type value =
  | Counter_v of int
  | Gauge_v of float
  | Histogram_v of {
      buckets : (float * int) list;  (** (upper bound, count), non-cumulative *)
      overflow : int;
      count : int;
      sum : float;
    }

type series = { labels : (string * string) list; value : value }

type family_snapshot = {
  family : string;
  help : string;
  kind : kind;
  series : series list;
}

type snapshot = family_snapshot list

val snapshot : ?registry:t -> unit -> snapshot
(** Families sorted by name, series sorted by labels — deterministic.
    On the default registry the snapshot also carries the synthetic
    counter family [obs_dropped_samples_total] (histogram samples
    clamped by the NaN/negative guard) once its count is nonzero. *)

val reset : ?registry:t -> unit -> unit
(** Zero every series in place. Cached handles stay valid. *)

val family_count : ?registry:t -> unit -> int

(** {1 Quantiles}

    While monitoring is on ({!Control.monitor_on}), every histogram
    series feeds a streaming quantile sketch alongside its buckets;
    these accessors read the sketches back. *)

type quantile_series = {
  q_family : string;
  q_labels : (string * string) list;
  q_count : int;  (** samples the sketch has seen *)
  q_values : (float * float) list;  (** (quantile, value) pairs *)
}

val default_quantiles : float list
(** p50 / p90 / p99. *)

val quantiles :
  ?registry:t -> ?qs:float list -> unit -> quantile_series list
(** Every histogram series whose sketch has data, sorted by family
    then labels — deterministic. *)

val quantile_of_family : ?registry:t -> string -> float -> float option
(** [quantile_of_family name q] is the {e worst} (largest) value of
    quantile [q] across the series of histogram family [name] — the
    reading SLO rules gate on, so no labelled series may hide a
    breach. [None] when the family is missing or has no sketch data. *)

val pp_text : Format.formatter -> snapshot -> unit
(** Human-readable summary table. *)

val to_json : snapshot -> Json.t
