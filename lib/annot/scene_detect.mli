(** Scene detection over the per-frame maximum-luminance track.

    §4.3: "we grouped frames into scenes based on their maximum
    luminance levels: a change of 10 % or more in frame maximum
    luminance level is considered a scene change, but only if it does
    not occur more frequently than a threshold interval. [...] Both
    these thresholds were experimentally set for minimizing visible
    spikes."

    The detector therefore opens a new scene when the frame maximum
    departs by at least [change_threshold] (relative) either from the
    previous frame (hard cuts) or from the first frame of the current
    scene (fades and slow pans, whose per-frame steps never reach the
    threshold but whose cumulative drift does), provided the current
    scene is at least [min_scene_frames] long — the hysteresis that
    prevents backlight flicker. *)

type params = {
  change_threshold : float;
      (** relative max-luminance change that signals a cut; the paper
          uses 0.10 *)
  min_scene_frames : int;
      (** minimum scene length in frames (the "threshold interval");
          must be at least 1 *)
  mean_change_threshold : float;
      (** relative *mean*-luminance change that also signals a cut in
          {!segment_with_means}. The paper's heuristic is max-only, but
          notes "different heuristics can be applied, depending on the
          nature of the video" (§2): flashes and explosions keep the
          frame maximum pinned while the mean jumps, and only a mean
          cut isolates them. [infinity] disables the criterion. *)
}

val default_params : params
(** 10 % max threshold, 40 % mean threshold, half a second at 12 fps
    (6 frames). *)

val per_frame_params : params
(** Degenerate parameters making every frame its own scene — the
    "backlight changes for each frame" variant the paper says can do
    better at the cost of flicker (ablation A1). *)

type scene = { first : int; last : int }
(** Inclusive frame interval. *)

val segment : params -> int array -> scene list
(** [segment params max_track] partitions frame indices
    [0 .. length-1] into scenes using the paper's max-luminance
    heuristic only (the mean criterion is ignored). The result is a
    partition: scenes are contiguous, ordered, non-overlapping, and
    cover every frame. An empty track yields no scenes. Raises
    [Invalid_argument] on bad parameters. *)

val segment_with_means :
  params -> max_track:int array -> mean_track:float array -> scene list
(** Like {!segment} but also cuts when the frame mean departs from the
    previous frame or drifts from the scene start by
    [mean_change_threshold] — the extended heuristic the annotator
    uses. The two tracks must have equal length. *)

val scene_max : int array -> scene -> int
(** [scene_max track s] is the maximum of [track] over the scene — the
    "Scene Max. Lum." series of Fig 6. *)

val switches : scene list -> int
(** Number of scene boundaries (backlight switching opportunities):
    [max 0 (scenes - 1)]. *)
