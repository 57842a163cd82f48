(** Fleet load profiles: who arrives when, to play what.

    A load profile describes a population of streaming sessions the
    way capacity planning sees it — an arrival process (open loop at a
    mean rate, or closed loop holding a fixed concurrency per shard),
    a Zipf popularity curve over the clip catalog, an optional diurnal
    modulation of the arrival rate, and an optional flash-crowd spike.
    Everything is generated from an explicit seed through the repo's
    deterministic PRNG ({!Image.Prng}), so a profile expands to the
    same arrivals on every run and every host.

    Profiles load from `key = value` text files (same grammar family
    as fault and resilience profiles, `#` comments allowed):

    {v
    arrival = open            # open | closed
    sessions = 10000
    rate_per_s = 120          # open loop: mean arrival rate
    concurrency = 32          # closed loop: in-flight target per shard
    zipf_s = 1.1              # popularity skew (0 = uniform)
    diurnal_amplitude = 0.4   # [0, 1): rate swings +/-40%
    diurnal_period_s = 600
    spike_at_s = 120          # optional flash crowd
    spike_factor = 5
    spike_width_s = 30
    seed = 7
    v} *)

type arrival = Open_loop | Closed_loop

type t = {
  arrival : arrival;
  sessions : int;
  rate_per_s : float;  (** open loop: mean arrivals per simulated second *)
  concurrency : int;  (** closed loop: sessions held in flight per shard *)
  zipf_s : float;  (** popularity exponent; 0 is uniform *)
  diurnal_amplitude : float;  (** [0, 1): sinusoidal rate modulation *)
  diurnal_period_s : float;
  spike_at_s : float option;  (** flash-crowd centre, simulated seconds *)
  spike_factor : float;  (** rate multiplier inside the spike window *)
  spike_width_s : float;
  seed : int;
}

val default : t
(** Open loop, 1000 sessions at 100/s, zipf 1.1, no diurnal swing, no
    spike, seed 7. *)

val parse : string -> (t, string) result
val load : path:string -> (t, string) result

val rate_at : t -> float -> float
(** [rate_at t now_s] is the instantaneous open-loop arrival rate with
    diurnal and spike modulation applied (floored just above zero). *)

type plan = {
  clip_of : int array;  (** catalog index per session id *)
  arrival_s : float array;
      (** arrival time per session id, non-decreasing; all zero for
          closed loop, where the scheduler starts sessions as slots
          free up *)
}

val plan : t -> catalog:int -> plan
(** [plan t ~catalog] expands the profile against a catalog of
    [catalog] clips. Clip choice and arrival times draw from distinct
    seeded streams, so reshaping the arrival process never changes
    which clip a session plays (and with it the session's shard).
    Raises [Invalid_argument] on an empty catalog. *)
