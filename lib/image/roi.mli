(** Regions of interest.

    §3 allows annotation "under user supervision (for example, the user
    may specify which parts or objects of the video stream are more
    important in a power-quality trade-off scenario)". A region of
    interest is a union of axis-aligned rectangles whose pixels must
    not be sacrificed to the clipping budget — the fix for the paper's
    end-credits failure case, where thin bright text is exactly what a
    percentage heuristic throws away. *)

type rect = { x : int; y : int; w : int; h : int }
(** A rectangle with non-negative dimensions. *)

type t
(** A union of rectangles. The empty region protects nothing. *)

val empty : t

val of_rects : rect list -> t
(** Raises [Invalid_argument] on a rect with negative dimensions. *)

val center_band : width:int -> height:int -> fraction:float -> t
(** [center_band ~width ~height ~fraction] is a horizontal band of the
    given height fraction centred vertically in a [width x height]
    frame — the natural protection for rolling credits or subtitles.
    [fraction] in (0, 1]. *)

val contains : t -> x:int -> y:int -> bool

val pixel_count : t -> width:int -> height:int -> int
(** Number of frame pixels inside the region (rect overlaps within the
    union are counted once). *)

val split_histograms :
  t -> Raster.t -> inside:Histogram.t -> outside:Histogram.t -> unit
(** [split_histograms roi frame ~inside ~outside] adds each pixel's
    luminance to [inside] or [outside] according to membership — a
    single pass over the frame. *)
