(** Sampling power meter — the software stand-in for the paper's rig.

    §5.1: "A PCI DAQ board was used to sample voltage drops across a
    resistor and the iPAQ, and sampled the voltages at 2K samples/sec."
    The meter samples a time-varying power function at a fixed rate and
    integrates energy with the same rectangle rule a DAQ post-processor
    would use. *)

type t

type reading = {
  duration_s : float;
  samples : int;
  energy_mj : float;  (** integral of power over time, millijoules *)
  average_power_mw : float;
  peak_power_mw : float;
  min_power_mw : float;
}

val create : ?sample_rate_hz:float -> unit -> t
(** [create ?sample_rate_hz ()] — default rate 2000 Hz, matching the
    paper's DAQ. The rate must be positive. *)

val sample_rate_hz : t -> float

val measure : ?component:string -> t -> duration_s:float -> (float -> float) -> reading
(** [measure meter ~duration_s power] samples [power t] (milliwatts at
    time [t] seconds) over [0, duration_s) and integrates. Duration
    must be positive. When [component] is given and observability is
    on, the resulting energy is also published to the installed
    health monitor's [power_<component>_mj] gauge for SLO power
    budgets and attributed to [component] by the installed energy
    profiler ({!Obs.Profile.record}). *)

val measure_trace : ?component:string -> t -> dt_s:float -> float array -> reading
(** [measure_trace meter ~dt_s trace] integrates a pre-sampled power
    trace where [trace.(i)] holds the power during
    [[i*dt_s, (i+1)*dt_s)]. The meter resamples it at its own rate
    (zero-order hold), as the DAQ would see a stepwise real signal.
    [component] behaves as in {!measure}. *)

val savings_vs : baseline:reading -> reading -> float
(** [savings_vs ~baseline r] is the fractional energy saving
    [(baseline - r) / baseline]; positive when [r] uses less energy. *)
