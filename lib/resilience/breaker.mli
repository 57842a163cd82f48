(** Closed / open / half-open circuit breaker on the simulated clock.

    Outcome rates are measured over windows of up to [window]
    admitted outcomes; when the failure rate over at least [min_samples]
    outcomes reaches [failure_threshold] the breaker opens, rejects
    work for [cooldown_s] of simulated time, then half-opens and
    admits exactly [probe_quota] probes: one probe failure reopens it,
    a full quota of successes closes it. Callers pass [now_s]
    everywhere — no ambient time — so equal seeds give equal
    transition sequences, each journaled as a
    {!Obs.Journal.Breaker_transition} event and mirrored into the
    [breaker_state] monitor series (0 closed, 1 half-open, 2 open). *)

type state = Closed | Half_open | Open

val state_code : state -> int
(** 0 / 1 / 2 in declaration order — the value SLO rules and journal
    events carry. *)

val state_label : state -> string
(** ["closed"], ["half_open"], ["open"]. *)

type config = {
  failure_threshold : float;  (** open at this failure rate, in [0,1] *)
  window : int;  (** outcomes per sliding window *)
  min_samples : int;  (** outcomes required before evaluating *)
  cooldown_s : float;  (** open -> half-open delay, simulated seconds *)
  probe_quota : int;  (** probes admitted while half-open *)
}

val default_config : config
(** 50% over a window of 8 (min 4 samples), 10 ms cooldown, 2 probes. *)

val clamp : config -> config
(** The sanitisation {!create} applies: threshold into [0,1], counts
    at least 1, [min_samples <= window], non-negative cooldown. The
    offline verifier (V502/V504) reports out-of-range profile values;
    the runtime clamps them so a bad profile cannot wedge the state
    machine. *)

type transition = {
  at_s : float;
  from_state : state;
  to_state : state;
  failure_permille : int;  (** windowed failure rate when it fired *)
}

type t

val create : ?config:config -> name:string -> unit -> t
(** A fresh breaker in {!Closed} with an empty window. [config] is
    passed through {!clamp}. *)

val name : t -> string

val state : t -> state

val allow : t -> now_s:float -> bool
(** May a unit of work proceed at [now_s]? Closed: always. Open: no,
    until [cooldown_s] has elapsed — at which point the breaker
    half-opens and this call admits the first probe. Half-open: yes
    for the remaining probe quota, no after. *)

val record : t -> now_s:float -> ok:bool -> unit
(** Report the outcome of admitted work. Ignored while {!Open} (the
    breaker admitted nothing). Half-open: a failure reopens, a full
    probe quota of successes closes. Closed: the outcome enters the
    sliding window and may trip the breaker open. *)

val cooldown_remaining : t -> now_s:float -> float option
(** [Some remaining] while {!Open} (0 once the cooldown has elapsed),
    [None] otherwise — what a retry schedule waits out before its next
    admission attempt. *)

val failure_permille : t -> int
(** Current open-window failure rate, x1000. *)

val transitions : t -> transition list
(** Every transition so far, oldest first — the deterministic record
    the QCheck state-machine property and the tests compare. *)
