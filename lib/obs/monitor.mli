(** Online health monitoring: sliding windows + SLO verdicts.

    A monitor advances on the {e simulated} session clock (callers
    tick it with frame timestamps), closes a window every simulated
    second — or early, at a scene cut — and evaluates a set of
    declarative {!Slo} rules against each closed window: windowed
    rates read the monitor's own series (open-window total, last
    gauge value, lifetime total), quantile rules read the sketches
    the registry histograms carry while monitoring is on. Because nothing reads the wall clock, a
    seeded run produces the same health report every time.

    At the end of a run {!report} additionally evaluates every
    quantile / gauge / lifetime-rate rule once against the whole
    session — the burn-rate verdicts say {e when} an objective was
    violated, the final column says whether the delivered session
    met it overall, which is what CI gates on.

    One monitor can be installed process-wide ({!install});
    instrumented libraries feed it through the nullary helpers
    ({!count}, {!gauge}, {!advance}, {!cut}) that no-op when nothing
    is installed or observability is off. *)

type t

val create : ?registry:Registry.t -> ?rules:Slo.rule list -> unit -> t
(** Defaults: the default registry, no rules. *)

val rules : t -> Slo.rule list

(** {1 Feeding (explicit instance)} *)

val incr : t -> ?by:int -> string -> unit
(** Bump a windowed counter series (created on first use). *)

val set_gauge : t -> string -> float -> unit
(** Set a gauge series; the value carries into later windows until it
    is set again. *)

val tick : t -> now_s:float -> unit
(** Advance the simulated clock; closes and evaluates every window
    boundary crossed. Time never goes backwards — stale timestamps
    are ignored. *)

val cut : t -> now_s:float -> unit
(** Close the current window early (scene boundary): ticks to
    [now_s], then seals whatever partial window is open. *)

val frames_series : string
(** ["frames"] — the denominator {!Slo.Ratio_per_frame} rules use. *)

(** {1 Series declarations}

    Instrumentation sites declare the window-series names they feed,
    at module-initialisation time, so offline tooling
    ({!Check.Artifact}'s SLO checker) can tell a valid selector from a
    typo without running a session. *)

val declare_series : string -> string
(** [declare_series name] registers [name] as a known monitor series
    and returns it — declare-and-bind in one line:
    [let s_foo = Obs.Monitor.declare_series "foo"]. Idempotent and
    thread-safe. *)

val declared_series : unit -> string list
(** Every declared series name, sorted — the ground truth the SLO
    checker validates non-quantile selectors against. Only modules
    linked into the calling executable contribute ([bin/lint] links
    with [-linkall] for exactly this reason). *)

(** {1 Verdicts} *)

type breach = { window : int; at_s : float; value : float }

type verdict = {
  rule : Slo.rule;
  evaluated : int;  (** windows in which the rule had a reading *)
  breached : int;
  worst : float option;  (** worst windowed reading, per rule direction *)
  final : float option;  (** whole-session reading, when defined *)
  final_breach : bool;
  breaches : breach list;  (** chronological, capped at 8 *)
}

type report = {
  window_s : float;
  windows : int;  (** closed windows, trailing partial included *)
  duration_s : float;  (** simulated time covered *)
  verdicts : verdict list;
}

val verdict_ok : verdict -> bool
(** No breached window and no final breach. *)

val healthy : report -> bool

val report : t -> report
(** Seals the trailing partial window, runs the end-of-session
    evaluation and assembles the report. Idempotent feeding should
    stop afterwards. *)

val pp_report : Format.formatter -> report -> unit
(** The structured health report with breach annotations. *)

val report_to_json : report -> Json.t

(** {1 Process-global instance} *)

val install : t -> unit
(** Also flips {!Control.set_monitor} on. *)

val uninstall : unit -> unit
(** Clears the instance and flips the monitor switch off. *)

val installed : unit -> t option

(** Default-instance helpers for instrumentation sites; no-ops when
    no monitor is installed or observability is disabled. *)

val count : ?by:int -> string -> unit

val gauge : string -> float -> unit

val advance : now_s:float -> unit

val scene_cut : now_s:float -> unit
