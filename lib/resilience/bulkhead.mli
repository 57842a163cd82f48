(** Bulkhead: a named concurrency compartment with an explicit queue
    and an explicit shed decision.

    At most [capacity] units of work run at once; up to [queue_limit]
    more wait; anything beyond is {e shed} — refused immediately so
    the caller can fall back down the degradation ladder instead of
    piling onto a saturated stage. Every decision is counted
    ({!stats}) and journaled as {!Obs.Journal.Bulkhead_decision}. Sequential callers (all the
    deterministic test and chaos paths) see decisions as a pure
    function of the call sequence; under a domain pool only the totals
    are schedule-independent. *)

type config = { capacity : int; queue_limit : int }

val default_config : config
(** Capacity 2, queue limit 2. *)

val clamp : config -> config
(** Capacity at least 1, queue limit at least 0 — applied by
    {!create}. *)

type decision = Admitted | Queued | Shed

val decision_label : decision -> string
(** ["admitted"] / ["queued"] / ["shed"]. *)

type t

val create : ?config:config -> name:string -> unit -> t

val name : t -> string

val config : t -> config
(** The clamped configuration in force. *)

type outcome = {
  decision : decision;
  queued_behind : int;  (** queue length observed when queued or shed *)
}

val enter : t -> outcome
(** Take a slot: admitted below capacity, queued (blocking until a
    slot frees) below the queue limit, shed otherwise. A shed outcome
    holds no slot — do not {!release} it. *)

val release : t -> unit
(** Return a slot taken by an admitted or queued {!enter}. *)

val run : t -> shed:(unit -> 'a) -> (unit -> 'a) -> 'a
(** [run t ~shed f] brackets [f] with {!enter}/{!release}, calling
    [shed] instead when the compartment refuses the work. *)

val stats : t -> int * int * int
(** Lifetime (admitted, queued, shed) totals. *)
