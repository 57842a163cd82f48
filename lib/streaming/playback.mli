(** Client playback simulation: the experiment engine behind Fig 6,
    Fig 9 and Fig 10.

    The client receives a pre-compensated stream plus the annotation
    track; every frame it looks up the backlight register and displays.
    The simulator expands that into a per-frame power trace, integrates
    it with the DAQ-style meter, and compares against the same playback
    at full backlight. *)

type options = {
  scene_params : Annotation.Scene_detect.params;
  cpu_busy_fraction : float;
      (** fraction of each frame interval spent decoding (CPU busy);
          the rest idles. In [0, 1]. *)
  meter : Power.Meter.t;
}

val default_options : options
(** Default scene parameters, 60 % decode duty cycle, 2 kHz meter. *)

type report = {
  clip_name : string;
  device_name : string;
  quality : Annotation.Quality_level.t;
  frames : int;
  duration_s : float;
  mean_register : float;
  switch_count : int;
  annotation_bytes : int;
  backlight_energy_mj : float;
  backlight_baseline_mj : float;
  backlight_savings : float;  (** fraction; the Fig 9 quantity *)
  total_energy_mj : float;
  total_baseline_mj : float;
  total_savings : float;  (** fraction; the Fig 10 quantity *)
}

val backlight_trace :
  device:Display.Device.t -> registers:int array -> float array
(** Per-frame backlight-only power (mW). *)

val run_with_registers :
  ?options:options ->
  device:Display.Device.t ->
  quality:Annotation.Quality_level.t ->
  clip_name:string ->
  fps:float ->
  annotation_bytes:int ->
  int array ->
  report
(** Core evaluation shared with the baseline strategies: integrates
    the trace and the full-backlight baseline and assembles a report.
    Raises [Invalid_argument] on an empty register track. *)

val run_profiled :
  ?options:options ->
  device:Display.Device.t ->
  quality:Annotation.Quality_level.t ->
  Annotation.Annotator.profiled ->
  report
(** Annotates the profiled clip and plays it back. *)

val run :
  ?options:options ->
  device:Display.Device.t ->
  quality:Annotation.Quality_level.t ->
  Video.Clip.t ->
  report
(** Profile, annotate, play back. *)

val instantaneous_backlight_savings :
  device:Display.Device.t -> Annotation.Track.t -> float array
(** Fig 6's "Backlight Power Saved" series: per frame,
    [1 - P_bl(register) / P_bl(255)]. *)

val evaluate_quality :
  rig:Camera.Snapshot.rig ->
  device:Display.Device.t ->
  clip:Video.Clip.t ->
  track:Annotation.Track.t ->
  sample_every:int ->
  (int * Camera.Quality.verdict) list
(** Fig 2 validation along the clip: every [sample_every]-th frame is
    compensated and photographed at its annotated register, against the
    original at full backlight. Returns (frame index, verdict). *)

val pp_report : Format.formatter -> report -> unit
