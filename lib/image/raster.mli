(** Mutable 2-D RGB888 images.

    A raster is a densely packed, row-major, 3-bytes-per-pixel buffer.
    This is the frame representation shared by the whole system: the
    synthetic clip generator writes rasters, the codec encodes and
    decodes them, the compensation step rewrites them in place or into
    a copy, and the camera model samples them. *)

type t
(** An image of fixed dimensions. *)

val create : width:int -> height:int -> t
(** [create ~width ~height] is an all-black image. Both dimensions must
    be positive. *)

val fill : t -> Pixel.t -> unit
(** [fill img p] sets every pixel of [img] to [p]. *)

val width : t -> int
val height : t -> int

val pixel_count : t -> int
(** [pixel_count img] is [width img * height img]. *)

val get : t -> x:int -> y:int -> Pixel.t
(** [get img ~x ~y] reads a pixel. Raises [Invalid_argument] when out of
    bounds. *)

val set : t -> x:int -> y:int -> Pixel.t -> unit
(** [set img ~x ~y p] writes a pixel. Raises [Invalid_argument] when out
    of bounds. *)

val data : t -> Bytes.t
(** [data img] is the packed buffer itself, not a copy: byte [i] is
    channel [i mod 3] (red, green, blue) of pixel [i / 3] in row-major
    order, and the buffer holds [3 * pixel_count img] bytes. It is for
    whole-image kernels that read or write every pixel and must not
    build a {!Pixel.t} per pixel; every byte is a valid channel value,
    so any write keeps the image valid. *)

val in_bounds : t -> x:int -> y:int -> bool

val copy : t -> t
(** [copy img] is a deep copy of [img]. *)

val blit : src:t -> dst:t -> unit
(** [blit ~src ~dst] copies all pixels; dimensions must match. *)

val init : width:int -> height:int -> (x:int -> y:int -> Pixel.t) -> t
(** [init ~width ~height f] builds an image whose pixel at [(x, y)] is
    [f ~x ~y]. *)

val map_inplace : (Pixel.t -> Pixel.t) -> t -> unit
(** [map_inplace f img] replaces every pixel [p] by [f p]. *)

val map : (Pixel.t -> Pixel.t) -> t -> t
(** [map f img] is a fresh image with every pixel transformed by [f]. *)

val iter : (x:int -> y:int -> Pixel.t -> unit) -> t -> unit
(** [iter f img] applies [f] to every pixel in row-major order. *)

val fold : ('a -> Pixel.t -> 'a) -> 'a -> t -> 'a
(** [fold f acc img] folds over pixels in row-major order. *)

val luminance_plane : t -> Bytes.t
(** [luminance_plane img] is a [width*height] byte buffer of per-pixel
    BT.601 luma values in row-major order. *)

val channel_max_plane : t -> Bytes.t
(** [channel_max_plane img] is a [width*height] byte buffer of per-pixel
    [max(r, g, b)] values. A pixel clips under a gain [k] exactly when
    [k * channel_max > 255], so histograms of this plane predict
    clipping exactly even for saturated colours, where luma
    under-estimates it (a pure red pixel has luma 76 but clips like a
    224-luma gray). *)

val max_luminance : t -> int
(** [max_luminance img] is the largest per-pixel luma, in [0, 255]. *)

val mean_luminance : t -> float
(** [mean_luminance img] is the average per-pixel luma. *)

val equal : t -> t -> bool
(** Structural equality: same dimensions and identical pixels. *)

val pp : Format.formatter -> t -> unit
(** Prints dimensions and mean luminance; intended for debugging. *)
