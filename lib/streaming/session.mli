(** End-to-end session orchestration.

    One call that runs the complete system of Fig 1 plus every §3
    annotation application: encode, annotate (server- or client-
    mapped), protect the annotation side channel with FEC, ship both
    over a lossy link, conceal video losses, and play back with
    backlight scaling, CPU frequency scaling and radio sleep
    scheduling simultaneously — then account the whole-device energy
    against the unoptimised baseline (full backlight, full CPU speed,
    radio always on). This is the API a downstream integrator calls;
    the pieces remain available individually. *)

type config = {
  device : Display.Device.t;
  quality : Annotation.Quality_level.t;
  mapping : Negotiation.mapping_site;
  link : Netsim.t;
  gop : int;
  ramp_step : int option;  (** slew-limit dimming when set *)
  seed : int;
  fault : Fault.t option;
      (** the channel on both hops — annotation packets, video frames,
          per-frame delivery time; [None] is {!Fault.none}, a lossless
          channel *)
  nack_budget_s : float;
      (** simulated-time budget for the annotation NACK/retransmit
          loop ({!Transport.nack_retransmit}); [0.] disables it *)
  resilience : Resilience.Profile.t option;
      (** resilience control plane for the annotation hop: retry policy
          for the NACK schedule, a circuit breaker gating its rounds, a
          stage-deadline watchdog, and the degradation ladder every
          lost or corrupt record walks. [None] is no retry policy, no
          breaker, no watchdog and a ladder of fresh → full backlight *)
  stale_track : Annotation.Track.t option;
      (** a previously prepared annotation track for the same clip
          (any quality) that the ladder's [stale] rung falls back to,
          per scene or for the whole track *)
}

val default_config : device:Display.Device.t -> config
(** 10 % quality, server-side mapping, 802.11b link, GOP 12, no ramp,
    lossless channel, 40 ms NACK budget, no resilience
    profile, no stale track. *)

type report = {
  config : config;
  frames : int;
  duration_s : float;
  video_bytes : int;
  annotation_bytes : int;
  annotations_survived : bool;
      (** whether the client plays annotations: [true] as soon as one
          scene's record survived the hop (or the ladder fell back to
          the stale track) — [degraded_scenes] says how many did not.
          When [false] the whole clip plays at full backlight (quality
          is never risked on guessed annotations) *)
  video_mean_psnr : float;
      (** after loss concealment, against the clean decode: each
          frame's PSNR capped at 99 dB, averaged in frame order
          ({!Transport.mean_psnr}); a frame no loss reached scores 99 *)
  concealed_frames : int;
  backlight_savings : float;
  cpu_savings : float;
  radio_savings : float;
  device_savings : float;
      (** whole-device energy vs the unoptimised baseline, all three
          optimisations combined *)
  device_energy_mj : float;
  baseline_energy_mj : float;
  degraded_scenes : int;
      (** scenes whose annotation record was lost or corrupt and that
          therefore play at the level their ladder rung gave them *)
  retransmissions : int;
      (** annotation packets re-sent by the NACK loop, all rounds *)
  corrupt_records : int;
      (** annotation records that arrived but broke a record rule
          ({!Annotation.Encoding.judge}: CRC32, order, span, gain,
          coverage) and were discarded *)
}

val patch_track :
  ?stale:Annotation.Track.t ->
  ?t_s:float ->
  Resilience.Degrade.t ->
  Annotation.Encoding.partial ->
  Annotation.Track.t * int
(** [patch_track ladder partial] rebuilds a full, valid annotation
    track from a partial decode by walking [ladder]: surviving records
    keep their scenes; each lost or corrupt record resolves at the
    shallowest enabled rung — [stale]'s entry for its scene when
    [stale] has the same scene grid, the level both intact neighbours
    agree on (register and effective maximum, the larger compensation)
    under [clamp], full backlight (register 255, compensation 1)
    otherwise. Consecutive missing records fill as one entry. Every
    record's rung is noted on [ladder] at [t_s] (default 0). Returns
    the patched track and the number of degraded scenes. *)

(** {1 Poll-able session machine}

    A session as an explicit state machine: [create] validates and
    allocates, each [step] advances exactly one stage — session start,
    transmit, decode/playback setup, then one simulated frame per call,
    then finalisation — and [result] reads the outcome once [step]
    returns [`Done]. {!run} is exactly that loop, so a machine driven
    to completion is indistinguishable from it. The fleet
    scheduler interleaves thousands of machines on the simulated clock
    by stepping each one as its next frame falls due. *)

type machine
(** One in-flight session. Not domain-safe: a machine belongs to the
    caller driving it. *)

type prepared_input = {
  track : Annotation.Track.t;
  annotation_payload : string;
  protected : Fec.protected_payload;
  encoded : Codec.Encoder.encoded;
  clean : Codec.Decoder.decoded option;
      (** not read: the client scores the PSNR account itself, decoding
          a clean chain only where a loss damaged the picture
          ({!Transport.receive}); {!prepare_input} leaves it [None] *)
}
(** The server-side artifacts a prepared-stream cache can inject into
    {!create}: everything computed before the transmission seed
    matters, shareable between every session playing the same clip at
    the same quality. *)

type progress =
  [ `Setup  (** server-side stages and the wireless hop still to run *)
  | `Frame of int  (** the next [step] replays this frame *)
  | `Finalize  (** all frames played; energy accounting remains *)
  | `Complete  (** [result] is available *) ]

val prepare_input : config -> Video.Clip.t -> prepared_input
(** [prepare_input config clip] runs the server-side pipeline once,
    outside any session: un-spanned and un-journaled, because cache
    fills are the cache owner's work, not any one session's. It
    encodes the video while profiling it, then annotates for the
    mapping site and FEC-protects the track. It decodes nothing. It
    renders every frame of [clip] exactly
    once, in order: the encoder's render of a frame also fills that
    frame's histogram ({!Annotation.Annotator.histogram_tap}). A
    machine created without [?prepared] runs the same pipeline in its
    first [step], under the [session.encode] span, which spans render,
    histogram and encode, then the [session.annotate] span. *)

val create : ?prepared:prepared_input -> config -> Video.Clip.t -> machine
(** [create config clip] validates the configuration (non-empty clip —
    same exception as {!run}) and returns a machine at its start
    state. No simulation effects happen until the first [step]. *)

val step : machine -> [ `Running | `Done ]
(** Advance one stage (one simulated frame, once playing). Idempotent
    after [`Done]. *)

val result : machine -> (report, string) result option
(** [None] until [step] has returned [`Done]. *)

val progress : machine -> progress
(** What the next [step] will do — the hook a scheduler keys its event
    clock on ([`Frame i] falls due at [i *. dt_s] on the session's
    local timeline). *)

val frames : machine -> int
(** Total frame count of the clip being played. *)

val dt_s : machine -> float
(** Simulated seconds per frame ([1 / fps]). *)

val run : config -> Video.Clip.t -> (report, string) result
(** [run config clip] executes the full session. Fails only on
    internal stream corruption.

    The first video frame is exempt from simulated loss (it is forced
    delivered and counted in the [forced_first_frame_deliveries_total]
    counter): with nothing decoded yet there is no previous picture to
    conceal with, so a real player would block on ARQ for the stream
    to actually start rather than play nothing — first-frame delivery
    is a precondition of playback, not a survivable loss. *)

val pp_report : Format.formatter -> report -> unit
(** Prints the report alone. Output is identical whether or not the
    observability layer is enabled — instrumentation never changes what
    the simulation says. *)

val pp_report_obs : Format.formatter -> report -> unit
(** [pp_report] followed by the observability summary (metric families
    and the span flame) when [Obs.enabled ()]; identical to [pp_report]
    otherwise. *)
