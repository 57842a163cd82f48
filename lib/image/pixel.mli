(** 8-bit RGB pixels and luminance arithmetic.

    All channel values live in the inclusive range [0, 255]. Luminance
    follows ITU-R BT.601: [y = 0.299 r + 0.587 g + 0.114 b], the formula
    the paper uses ("Y = rR + gG + bB, where r, g, b are known
    constants"). *)

type t = { r : int; g : int; b : int }
(** One RGB888 pixel. Invariant: every channel is in [0, 255]. *)

val v : int -> int -> int -> t
(** [v r g b] builds a pixel, clamping each channel to [0, 255]. *)

val black : t
val white : t

val gray : int -> t
(** [gray l] is the pixel with all three channels equal to [l] (clamped). *)

val clamp_channel : int -> int
(** [clamp_channel c] clamps [c] to [0, 255]. *)

val luminance : t -> int
(** [luminance p] is the BT.601 luma of [p], rounded to nearest, in
    [0, 255]. White maps to 255 and black to 0. *)

val luminance_rgb : int -> int -> int -> int
(** [luminance_rgb r g b] is [luminance (v r g b)] for channels already
    in [0, 255], with no pixel record. *)

val scale : float -> t -> t
(** [scale k p] multiplies every channel by [k] and clamps: the paper's
    contrast-enhancement compensation [C' = min(1, C*k)] applied
    per channel. [k] must be non-negative. *)

val add : int -> t -> t
(** [add d p] adds [d] to every channel and clamps: the paper's
    brightness compensation [C' = min(1, C + dC)]. *)

val is_clipped_by_scale : float -> t -> bool
(** [is_clipped_by_scale k p] is [true] iff scaling [p] by [k] saturates
    at least one channel, i.e. information is lost. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
