(** Uniform evaluation harness for all strategies (ablation A2).

    Every strategy reduces to a per-frame register track; the harness
    evaluates power through the same playback engine as the paper's
    approach, and quality as the per-frame clipped-pixel fraction
    implied by each register (a frame's pixels clip when the standard
    compensation [k = 1/gain] saturates them). *)

type outcome = {
  strategy : Strategy.t;
  registers : int array;
  report : Streaming.Playback.report;
  violations : int;
      (** frames whose clipped fraction exceeds the quality budget by
          more than one percentage point. The tolerance filters out
          scene-aggregation noise (a scene-level budget holds on the
          merged histogram, so individual frames may run fractions of
          a point over) and keeps the count focused on real
          mispredictions, which overshoot by tens of points *)
  worst_excess_clip : float;
      (** largest per-frame overshoot of the budget, as a fraction *)
  aggregate_clipped : float;
      (** clip-wide clipped-pixel fraction *)
  annotation_bytes : int;  (** side-channel cost; 0 for client-side *)
}

val decide :
  device:Display.Device.t ->
  quality:Annotation.Quality_level.t ->
  Annotation.Annotator.profiled ->
  Strategy.t ->
  int array
(** Per-frame registers the strategy would program. *)

val clipped_fraction_trace :
  device:Display.Device.t ->
  Annotation.Annotator.profiled ->
  int array ->
  float array
(** Per-frame clipped fraction for a register track. *)

val run :
  ?options:Streaming.Playback.options ->
  device:Display.Device.t ->
  quality:Annotation.Quality_level.t ->
  Annotation.Annotator.profiled ->
  Strategy.t ->
  outcome
(** Full evaluation. The playback options' CPU duty cycle is raised by
    the strategy's on-device analysis overhead. *)

val standard_lineup : Strategy.t list
(** The comparison set used by the A2 bench: annotated (scene and
    per-frame), full backlight, static 70 %, client analysis, history
    prediction, QABS-style smoothing. *)
