(** The offline annotation pipeline.

    "The video clips available for streaming at the servers are first
    profiled, processed and annotated with data characterizing the
    luminance levels during various scenes" (§4). The pipeline makes a
    single pixel pass over the clip (collecting per-frame histograms),
    detects scenes, solves each scene's backlight, and assembles the
    annotation track. Profiling is separated from solving so a
    multi-quality, multi-device sweep (Fig 9/10) profiles each clip
    once. *)

type profiled = {
  clip_name : string;
  fps : float;
  total_frames : int;
  histograms : Image.Histogram.t array;  (** one per frame *)
  max_track : int array;  (** per-frame maximum luminance *)
  mean_track : float array;  (** per-frame mean luminance *)
}

val profile :
  ?plane:[ `Luma | `Channel_max ] ->
  ?pool:Par.Pool.t ->
  Video.Clip.t ->
  profiled
(** Single-pass profiling of a clip. The default [`Luma] plane is the
    paper's metric; [`Channel_max] makes the clipping budget exact on
    saturated-colour content at the cost of slightly conservative
    registers (channel max is at least luma, never below).

    With [pool], the per-frame histogram pass is chunked across the
    pool's domains; every frame still fills its own slot, so the
    result is bit-identical to the sequential pass — the determinism
    tests assert [profile ~pool] = [profile] field for field. *)

val profile_of_histograms : Video.Clip.t -> Image.Histogram.t array -> profiled
(** [profile_of_histograms clip histograms] is the profile of [clip]
    given its per-frame histograms, in frame order: [profile ?plane
    clip] is [profile_of_histograms clip] of its histogram pass over
    [plane]. It bumps
    [annot_profiles_total] as {!profile} does. Raises
    [Invalid_argument] unless there is one histogram per frame. *)

val histogram_tap : Video.Clip.t -> Video.Clip.t * (unit -> profiled)
(** [histogram_tap clip] is [(tapped, finish)]. [tapped] renders
    exactly the frames of [clip], and histograms each frame's luma as
    it is rendered, so a consumer that renders every frame of
    [tapped] once (the encoder does) also profiles the clip. After
    that, [finish ()] is [profile clip], with no frame rendered again.
    Raises [Invalid_argument] from [finish] if some frame of [tapped]
    was never rendered. [tapped] is for one consumer on one domain. *)

val annotate_profiled :
  ?scene_params:Scene_detect.params ->
  device:Display.Device.t ->
  quality:Quality_level.t ->
  profiled ->
  Track.t
(** Scene detection + per-scene solving on a cached profile. Default
    scene parameters are {!Scene_detect.default_params}. *)

val annotate :
  ?scene_params:Scene_detect.params ->
  ?pool:Par.Pool.t ->
  device:Display.Device.t ->
  quality:Quality_level.t ->
  Video.Clip.t ->
  Track.t
(** [annotate ~device ~quality clip] = profile then annotate; [pool]
    parallelises the profiling pass as in {!profile}. *)

val scene_histogram : profiled -> Scene_detect.scene -> Image.Histogram.t
(** Merged histogram of all frames in a scene. *)
