(** Annotation tracks — the data attached to a video stream.

    A track is the sequence of per-scene backlight instructions the
    server computes offline. At playback "the only extra operation that
    the device has to perform [...] is to adjust the backlight level
    periodically, according to the annotations in the video stream"
    (§4.3) — a constant-time lookup here. *)

type entry = {
  first_frame : int;
  frame_count : int;  (** positive *)
  register : int;  (** backlight register, 0–255 *)
  compensation : float;  (** image gain applied server-side, >= 1 *)
  effective_max : int;  (** scene effective max luminance, 0–255 *)
}

type t = {
  clip_name : string;
  device_name : string;
  quality : Quality_level.t;
  fps : float;
  total_frames : int;
  entries : entry array;
}

val make :
  clip_name:string ->
  device_name:string ->
  quality:Quality_level.t ->
  fps:float ->
  total_frames:int ->
  entry array ->
  t
(** Validates the invariants: entries are contiguous starting at frame
    0, cover exactly [total_frames], registers and luminances are in
    range, compensations are at least 1. Raises [Invalid_argument]
    otherwise. An empty clip (0 frames) has no entries. *)

val lookup : t -> int -> entry
(** [lookup track frame] is the entry governing [frame] (binary
    search). Raises [Invalid_argument] out of range. *)

val register_track : t -> int array
(** Per-frame backlight register, expanded — handy for power traces. *)

val switch_count : t -> int
(** Number of frames at which the register actually changes — the
    flicker metric of ablation A1. *)

val merge_runs : t -> t
(** Coalesces adjacent entries with identical settings (register,
    compensation, effective max). This is the "RLE" step that makes
    per-frame annotation tracks collapse back to scene-sized runs when
    content is stable (§4.3: "The annotations are RLE compressed"). *)

val entry_count : t -> int

val pp : Format.formatter -> t -> unit
