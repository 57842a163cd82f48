(** Energy-attribution profiler.

    Answers "where do the joules go?" the way the span tracer answers
    "where does the time go?". Metering sites ({!Power.Meter.publish},
    the streaming session's per-scene attribution hook) report
    (component, millijoules) samples; the profiler files each under
    the attribution path formed by the currently open span stack,
    an optional scene segment, and the component name — yielding a
    session → stage → scene → component hierarchy. The same sample
    also feeds a cumulative [profile_energy_mj{component}] registry
    gauge and a Chrome [trace_event] counter track, which is the
    profile's view over time.

    Attribution is observational only: no consumer of the profiler
    influences pipeline behaviour, and when no profiler is installed
    (or observability is off) {!record} is a no-op, so session
    reports are byte-identical with and without profiling. *)

type t

val create : unit -> t

(** {1 Process-global instance}

    Mirrors {!Monitor}: one profiler may be installed process-wide;
    instrumentation sites feed it through {!record}, which no-ops
    when nothing is installed. *)

val install : t -> unit

val uninstall : unit -> unit

val current : unit -> t option

val installed : unit -> bool

val record : ?scene:int -> component:string -> float -> unit
(** [record ~component mj] attributes [mj] millijoules to [component]
    under the currently open span path on the installed profiler.
    [scene] inserts a [scene.N] path segment between the span stack
    and the component. No-op when observability is off or no
    profiler is installed; non-finite samples are dropped. *)

(** {1 Readbacks}

    All deterministic: sorted by path / component name. *)

val samples : t -> int

val stacks : t -> (string list * float) list
(** Attributed millijoules per full path, sorted by path. *)

val by_component : t -> (string * float) list

val total_mj : t -> float

val counter_events : t -> Trace.counter list
(** One Chrome counter sample per recording (cumulative per-component
    totals), oldest first — pass to {!Trace.to_chrome_json}. *)

(** {1 Rendering} *)

val flamegraph : t -> string
(** Collapsed-stack text ([path;to;component value] lines, one per
    attribution path, values in integer microjoules) — feed to any
    flamegraph.pl-compatible renderer or speedscope. *)

val pp_summary : Format.formatter -> t -> unit
