(** Graceful-degradation ladder.

    The explicit fallback order the streaming client walks when fresh
    annotations cannot be had (DESIGN.md §14):

    {v
    fresh ──► stale ──► clamp ──► full
      0         1          2        3
    v}

    fresh annotation → stale cached annotation (another quality of the
    same clip from {!Streaming.Server}'s prepared cache) →
    neighbour-clamped per-scene reconstruction → full-backlight
    passthrough, the rung that cannot fail. Every non-fresh step taken
    is journaled as {!Obs.Journal.Ladder_step} and counted per rung
    ({!taken}); the deepest rung reached feeds the [ladder_depth]
    monitor series SLO rules gate on. *)

type step = Fresh | Stale_cache | Neighbour_clamp | Full_backlight

val rank : step -> int
(** 0–3 in ladder order; also the [depth] journaled per step. *)

val label : step -> string
(** ["fresh"] / ["stale"] / ["clamp"] / ["full"] — the profile-grammar
    and journal spelling. *)

val of_label : string -> step option

val all : step list
(** Every rung, shallowest first. *)

val default_steps : step list
(** The full ladder. *)

type t

val create : ?steps:step list -> unit -> t
(** A ladder offering [steps] (default: all). [Fresh] and
    [Full_backlight] are always present — the walk needs a start and a
    rung that cannot fail — and the list is sorted and deduplicated;
    a mis-ordered profile is the offline verifier's business (V503). *)

val steps : t -> step list

val enabled : t -> step -> bool

val next_step : t -> from:step -> step
(** Shallowest enabled rung no shallower than [from] — where the walk
    lands when it asks for [from] but the profile disabled it.
    [Full_backlight] when nothing else matches. *)

val note : t -> ?t_s:float -> scene:int -> step -> unit
(** Record that [scene] (-1: the whole track) resolved at [step].
    Every step is counted ({!taken}) and updates the [ladder_depth]
    gauge with the deepest rank so far; non-fresh steps are also
    journaled. *)

val depth : t -> int
(** Deepest rank reached so far (0 if only fresh). *)

val taken : t -> (step * int) list
(** Per-rung counts of steps noted, shallowest first, zero entries
    omitted. *)
