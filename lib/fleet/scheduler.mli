(** Deterministic fleet scheduler: thousands of poll-able sessions
    interleaved on a simulated clock.

    The scheduler expands a {!Load} profile into sessions, routes each
    one to the shard that owns its clip ({!Chash}), and drives every
    shard as an independent sequential discrete-event loop over
    {!Streaming.Session} tick machines: session setup resolves at
    admission, then each frame becomes one event on the shard's
    simulated timeline, so thousands of sessions interleave
    frame-by-frame the way a fleet of devices would — without threads
    and without wall-clock time anywhere in the loop.

    Each shard keeps one prepared-stream cache
    ({!Streaming.Session.prepare_input} per clip, shared by every
    session of that clip it admits), applies admission control at its
    boundary (admit below [capacity], queue up to [queue_limit], then
    shed), and journals every decision
    ([Fleet_shard_start] / [Fleet_arrival] / [Fleet_admission] /
    [Fleet_session_end]) into a per-shard {!Obs.Journal}. Because
    shards share no state, running them across a {!Par.Pool} changes
    wall-clock time only: every per-shard journal, report and sample
    stream is byte-identical at any domain count, and the fleet report
    concatenates and folds them in shard order. *)

type config = {
  shards : int;
  vnodes : int;  (** virtual nodes per shard on the hash ring *)
  capacity : int;  (** concurrent sessions admitted per shard *)
  queue_limit : int;  (** waiting-room depth before arrivals are shed *)
  rules : Obs.Slo.rule list;  (** evaluated on the fleet-wide rollup *)
}

val default_rules : unit -> Obs.Slo.rule list
(** No failed sessions ([fleet_failed_per_s == 0]) and non-negative
    device savings ([fleet_device_savings >= 0]). *)

val default_config : config
(** 4 shards, 64 vnodes, capacity 64, queue limit 256, default
    rules. *)

type sample = { at_us : int; series : string; gauge : float option }
(** One monitor observation on a shard's simulated timeline; [None]
    bumps a counter series, [Some v] sets a gauge. *)

type shard_report = {
  shard : int;
  assigned : int;
  completed : int;
  degraded : int;
  failed : int;
  shed : int;
  ticks : int;  (** session-machine steps executed *)
  peak_in_flight : int;
  sim_end_s : float;
  cache_hits : int;  (** admitted sessions served warm artifacts *)
  cache_misses : int;
      (** admitted sessions that built them: one per distinct clip *)
  savings_sum : float;
  events : Obs.Journal.event list;
  samples : sample list;
}

type report = {
  config : config;
  sessions : int;
  completed : int;
  degraded : int;
  failed : int;
  shed : int;
  ticks : int;
  sim_duration_s : float;  (** latest simulated instant on any shard *)
  sessions_per_sim_second : float;
      (** completed sessions per simulated second — deterministic, the
          fleet's throughput headline *)
  mean_device_savings : float;  (** over sessions that completed ok *)
  shard_reports : shard_report array;
  journal_events : Obs.Journal.event list;
      (** all shards' events, concatenated in shard order; each shard
          opens with [Fleet_shard_start], which resets the journal
          verifier's clock *)
  monitor : Obs.Monitor.report;  (** fleet-wide SLO rollup *)
}

val run :
  ?pool:Par.Pool.t ->
  config ->
  session_config:Streaming.Session.config ->
  clips:Video.Clip.t array ->
  load:Load.t ->
  report
(** [run config ~session_config ~clips ~load] expands [load] against
    the [clips] catalog and drives the whole fleet to completion on
    the simulated clock. Session [i] runs with
    [{session_config with seed = seed + i}]. The result is a pure
    function of the arguments: [?pool] only parallelises the
    independent shard loops. Raises [Invalid_argument] on an empty
    catalog or non-positive shard/capacity counts. *)

val journal : report -> string
(** Encoded fleet journal ({!Obs.Journal.encode} of
    [journal_events]) — verifiable by the journal linter. *)

val pp_report : Format.formatter -> report -> unit
