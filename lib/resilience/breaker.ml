(* Closed / Open / Half-open circuit breaker on the simulated clock.
   Failure rates are measured over a window of recent outcomes; every
   transition is journaled, so a breaker trip is a first-class,
   reproducible decision rather than an emergent hiccup.
   Nothing here reads ambient time — callers pass [now_s] — which is
   what makes equal seeds give equal transition sequences. *)

type state = Closed | Half_open | Open

let state_code = function Closed -> 0 | Half_open -> 1 | Open -> 2

let state_label = function
  | Closed -> "closed"
  | Half_open -> "half_open"
  | Open -> "open"

type config = {
  failure_threshold : float;
  window : int;
  min_samples : int;
  cooldown_s : float;
  probe_quota : int;
}

let default_config =
  {
    failure_threshold = 0.5;
    window = 8;
    min_samples = 4;
    cooldown_s = 0.01;
    probe_quota = 2;
  }

(* Runtime never trusts a parsed profile blindly: the offline verifier
   (V502/V504) reports nonsense, the runtime clamps it into something
   that cannot wedge the state machine. *)
let clamp (c : config) =
  let window = max 1 c.window in
  {
    failure_threshold = Float.min 1. (Float.max 0. c.failure_threshold);
    window;
    min_samples = min window (max 1 c.min_samples);
    cooldown_s = Float.max 0. c.cooldown_s;
    probe_quota = max 1 c.probe_quota;
  }

type transition = {
  at_s : float;
  from_state : state;
  to_state : state;
  failure_permille : int;
}

type t = {
  name : string;
  config : config;
  mutable failures : int;  (* owned_by: the session control plane, single-threaded (L012 gates every mutator); failures this window *)
  mutable seen : int;  (* owned_by: session control plane; outcomes this window *)
  mutable state : state;  (* owned_by: session control plane *)
  mutable opened_at_s : float;  (* owned_by: session control plane *)
  mutable probes_issued : int;  (* owned_by: session control plane *)
  mutable probes_ok : int;  (* owned_by: session control plane *)
  mutable transitions : transition list;  (* owned_by: session control plane; newest first *)
}

let s_breaker_state = Obs.Monitor.declare_series "breaker_state"

let create ?(config = default_config) ~name () =
  {
    name;
    config = clamp config;
    failures = 0;
    seen = 0;
    state = Closed;
    opened_at_s = 0.;
    probes_issued = 0;
    probes_ok = 0;
    transitions = [];
  }

let state t = t.state

let name t = t.name

let transitions t = List.rev t.transitions

let failure_permille t =
  if t.seen = 0 then 0
  else
    int_of_float
      (Float.round
         (1000. *. float_of_int t.failures /. float_of_int t.seen))

let transition t ~now_s to_state =
  let tr =
    {
      at_s = now_s;
      from_state = t.state;
      to_state;
      failure_permille = failure_permille t;
    }
  in
  t.transitions <- tr :: t.transitions;
  Obs.Monitor.gauge s_breaker_state (float_of_int (state_code to_state));
  Obs.Journal.record ~t_s:now_s
    (Obs.Journal.Breaker_transition
       {
         name = t.name;
         from_state = state_code t.state;
         to_state = state_code to_state;
         failure_permille = tr.failure_permille;
       });
  t.state <- to_state;
  (match to_state with
  | Open ->
    t.opened_at_s <- now_s;
    t.probes_issued <- 0;
    t.probes_ok <- 0
  | Half_open ->
    t.probes_issued <- 0;
    t.probes_ok <- 0
  | Closed ->
    (* Fresh window: the breaker forgets the incident it just
       survived instead of instantly re-tripping on stale samples. *)
    t.failures <- 0;
    t.seen <- 0)

let cooldown_remaining t ~now_s =
  match t.state with
  | Open -> Some (Float.max 0. (t.opened_at_s +. t.config.cooldown_s -. now_s))
  | Closed | Half_open -> None

let allow t ~now_s =
  match t.state with
  | Closed -> true
  | Open ->
    if now_s -. t.opened_at_s >= t.config.cooldown_s then begin
      transition t ~now_s Half_open;
      t.probes_issued <- 1;
      true
    end
    else false
  | Half_open ->
    if t.probes_issued < t.config.probe_quota then begin
      t.probes_issued <- t.probes_issued + 1;
      true
    end
    else false

let record t ~now_s ~ok =
  match t.state with
  | Open -> ()  (* nothing was admitted; nothing to learn *)
  | Half_open ->
    if not ok then transition t ~now_s Open
    else begin
      t.probes_ok <- t.probes_ok + 1;
      if t.probes_ok >= t.config.probe_quota then transition t ~now_s Closed
    end
  | Closed ->
    t.seen <- t.seen + 1;
    if not ok then t.failures <- t.failures + 1;
    let rate = float_of_int t.failures /. float_of_int t.seen in
    if t.seen >= t.config.min_samples && rate >= t.config.failure_threshold
    then transition t ~now_s Open
    else if t.seen >= t.config.window then begin
      (* Rotate the sliding window so ancient outcomes age out. *)
      t.failures <- 0;
      t.seen <- 0
    end
