(** CPU dynamic voltage/frequency scaling.

    §3 argues that annotations enable "optimizations like
    frequency/voltage scaling ... before decoding is finished, because
    the annotated information is available early from the data
    stream". This module models an XScale-class core (the h5555's
    PXA255 scales 100–400 MHz) with the classic [P ~ C V^2 f] law;
    {!Streaming.Dvfs_playback} builds the per-frame policy on top. *)

type level = {
  frequency_mhz : int;
  voltage_v : float;
  busy_power_mw : float;
  idle_power_mw : float;
}

val xscale_levels : level list
(** The four operating points, ascending frequency; the top one matches
    the 600 mW busy figure of the device profiles. *)

val full_speed : level
(** The highest operating point. *)

val cycles_available : level -> seconds:float -> float
(** [cycles_available level ~seconds] is how many cycles the core
    retires in the given wall time. *)

val lowest_feasible : cycles:float -> deadline_s:float -> level option
(** [lowest_feasible ~cycles ~deadline_s] is the slowest operating
    point that retires [cycles] within the deadline, or [None] if even
    {!full_speed} cannot (an unavoidable deadline miss). Raises
    [Invalid_argument] on non-positive deadline or negative cycles. *)

val busy_seconds : level -> cycles:float -> float
(** Time to retire [cycles] at the level. *)

val frame_energy_mj : level -> cycles:float -> deadline_s:float -> float
(** Energy to decode one frame: busy at the level for the cycles, then
    idle at the level for the remainder of the frame interval (clamped
    at zero when the frame overruns). *)
