(** Deterministic flight recorder for session decisions.

    The observability layer measures a run (metrics, spans, windows);
    the journal *explains* it: an append-only log of every decision
    the pipeline took — which backlight level each scene got and what
    the candidates were, which packets the channel killed, how many
    NACK rounds the transport spent, which scenes degraded and why,
    what the DVFS governor picked, where the monitor saw an SLO
    breach. Because the whole simulator is a pure function of its
    inputs (DESIGN.md §8), two journals of the same run are
    byte-identical, so diffing two journals localises the *first
    divergent decision* between two configurations — the
    deterministic-replay debugging primitive {!Explain.diff} and
    [inspect diff] build on.

    Like {!Profile} and {!Monitor}, the recorder is a process-global
    installable: with nothing installed (or observability off)
    {!record} is a single load and the instrumented code paths are
    byte-identical — asserted in the tests. Events carry only integers
    and short strings (times in microseconds, ratios in permille,
    gains in the {!Annotation.Encoding} 4096 fixed point), never
    floats, so the wire form is trivially reproducible.

    Wire format (audited offline by [lint verify], V4xx): header
    ["AJNL"], a version byte, and a CRC32 of those five bytes; then
    one frame per event — varint payload length, payload, payload
    CRC32. A payload is a kind tag byte, a varint timestamp in
    microseconds of simulated time, and the kind's fields as varints
    and length-prefixed strings. Timestamps restart per pipeline phase
    (annotate, transmit, playback each replay their own clock), per
    session, and per stage run (one process may annotate several
    times), so monotonicity is checked within each contiguous run of
    same-phase events ({!tick}). CRC framing means a corrupt or
    truncated journal still yields every intact prefix event through
    {!decode_partial}. The byte layer is {!Wire.Binary}; {!walk} is the
    one reading of the framing, and {!tick} the one clock rule, that
    the decoders and the verifier share. *)

type trigger =
  | Record_lost  (** annotation record bytes never arrived *)
  | Record_corrupt  (** record arrived but failed its CRC / sanity checks *)
  | Header_lost  (** stream header unusable: whole track fell back *)

type kind =
  | Session_start of {
      clip : string;
      device : string;
      quality : string;
      frames : int;
      fps_milli : int;
    }
  | Scene_decision of {
      scene : int;
      first_frame : int;
      frame_count : int;
      register : int;  (** chosen backlight level *)
      effective_max : int;
      compensation_fp : int;  (** luminance gain, x4096 fixed point *)
      clipped_permille : int;  (** quality score: clipped-pixel fraction *)
      quality_permille : int;  (** allowed loss the solver ran at *)
      candidates : int list;
          (** registers the solver would pick across the quality grid *)
    }
  | Scene_cut of { scene : int; frame : int }
  | Backlight_switch of { frame : int; from_register : int; to_register : int }
  | Deadline_miss of { frame : int; over_us : int }
  | Channel of { packets : int; delivered : int }
      (** one pass of the fault injector over a packet train *)
  | Nack_round of { round : int; missing : int; repaired : int }
  | Fec_outcome of { failed_groups : int; repaired_packets : int }
  | Degradation of { index : int; trigger : trigger; policy : string }
      (** annotation record [index] (-1: the whole track) fell back *)
  | Dvfs_choice of { policy : string; mean_mhz : int; misses : int }
  | Slo_breach of {
      rule : string;
      window : int;
      value_milli : int;  (** breaching reading, x1000 *)
      window_us : int;  (** duration of the breached window *)
    }
  | Session_end of {
      survived : bool;
      degraded_scenes : int;
      retransmissions : int;
      corrupt_records : int;
    }
  | Ladder_step of { scene : int; depth : int; step : string }
      (** scene [scene] (-1: the whole track) resolved at degradation
          rung [step] of depth [depth] (1 stale, 2 clamp, 3 full);
          fresh resolutions are not journaled *)
  | Breaker_transition of {
      name : string;
      from_state : int;  (** 0 closed, 1 half-open, 2 open *)
      to_state : int;
      failure_permille : int;  (** windowed failure rate when it fired *)
    }
  | Bulkhead_decision of {
      name : string;
      decision : string;  (** ["admitted"], ["queued"] or ["shed"] *)
      in_flight : int;
      queued : int;
    }
      (** admission verdict of a bulkhead compartment; recorded in the
          session-start phase at t = 0 because admission precedes any
          simulated stage clock *)
  | Watchdog_trip of { stage : string; budget_us : int; over_us : int }
      (** stage deadline watchdog fired: [stage] overran its budget by
          [over_us] and the session fell down the degradation ladder
          instead of raising *)
  | Fleet_shard_start of { shard : int; shards : int; sessions : int }
      (** one fleet shard's journal begins: shard [shard] of [shards]
          was assigned [sessions] sessions. Recorded at t = 0 in the
          session-start phase, so per-shard journals concatenate into
          one fleet journal without tripping the per-phase
          monotonicity audit (V406) *)
  | Fleet_arrival of { session : int; clip : string }
      (** the load generator delivered session [session] (fleet-wide
          id) for [clip] to this shard at the event's simulated time *)
  | Fleet_admission of {
      session : int;
      decision : string;
      in_flight : int;
      queued : int;
    }
      (** the shard-boundary admission verdict ("admitted", "queued"
          or "shed") with the shard occupancy at decision time *)
  | Fleet_session_end of {
      session : int;
      outcome : string;
      degraded_scenes : int;
    }
      (** a scheduled session left the shard: [outcome] is "ok",
          "degraded" (annotations lost or scenes degraded) or
          "error" *)

type event = { t_us : int; kind : kind }

(** {1 Recording} *)

type t

val create : unit -> t

val record_in : t -> ?t_s:float -> kind -> unit
(** [record_in t ~t_s kind] appends an event stamped [t_s] seconds of
    simulated time (default 0, clamped at 0). Thread-safe. *)

val events : t -> event list
(** All events, oldest first. *)

val length : t -> int

(** {1 Process-global instance}

    Mirrors {!Profile}: the instrumented pipeline records into
    whichever journal is installed, and records nothing — at the cost
    of one option load — when none is. *)

val install : t -> unit

val uninstall : unit -> unit

val current : unit -> t option

val installed : unit -> bool

val record : ?t_s:float -> kind -> unit
(** No-op unless observability is enabled and a journal is installed. *)

(** {1 Wire format} *)

val magic : string
(** ["AJNL"]. *)

val version : int

val phase : kind -> int
(** Pipeline phase the kind belongs to — 0 session-start, 1 annotate,
    2 transmit, 3 playback, 4 session-end, 5 fleet. Timestamps are
    monotone within each contiguous run of same-phase events
    ({!tick}). *)

val encode : event list -> string

val to_string : t -> string
(** [encode (events t)]. *)

val size_bytes : t -> int

val write : t -> path:string -> unit
(** Raises [Sys_error] like any file write. *)

type status =
  | Event of event
  | Bad_crc
  | Bad_payload of string
      (** CRC-valid, but an unknown kind tag, a malformed field or
          trailing bytes: the decoder's message *)

type broken = { index : int; offset : int; error : Wire.Binary.error }
(** Frame [index], from byte [offset], could not be framed: its
    ["frame length"] varint failed, or the length passed the 64 KiB cap
    or the end of the data (what ["frame"]). *)

type header_error =
  | Bad_magic
  | Missing_version
  | Bad_version of int
  | Missing_header_crc
  | Bad_header_crc

val walk :
  string ->
  init:'a ->
  ('a -> index:int -> offset:int -> status -> 'a) ->
  ('a * broken option, header_error) result
(** The one reading of the framing: [walk data ~init f] checks the
    header, then folds [f] over the frames in order. A frame that
    cannot be framed ends the walk ([Some broken]); past a broken
    length nothing can be trusted, so there is no resync. {!decode},
    {!decode_partial} and the offline verifier
    ({!Check.Artifact.check_journal}) are folds over it. *)

type clock
(** Where the per-phase clock rule stands: the current run's phase
    and its latest stamp. *)

val start_clock : clock

val tick : clock -> event -> clock * string option
(** [tick clock e] is the clock after [e] and, when [e]'s stamp runs
    backwards within its run, the problem. {!decode} and the offline
    verifier (V406) apply it; {!decode_partial} does not. *)

val decode : string -> (event list, string) result
(** Strict decode: any framing, CRC or schema problem, or a stamp
    {!tick} rejects, fails the whole journal. *)

type partial = {
  events : event list;  (** every frame that decoded, oldest first *)
  corrupt_frames : int;  (** frames skipped over a CRC or schema failure *)
  truncated : bool;  (** the byte stream ended mid-frame *)
  error : string option;  (** fatal header-level problem, nothing walked *)
}

val decode_partial : string -> partial
(** Never raises: a damaged journal yields every event whose frame
    still checks out, so [inspect] can render a partial timeline of a
    run that crashed or a file that was corrupted at rest. A salvage
    reader, it keeps events whose stamps run backwards. *)
