(** Sample planes and RGB <-> YCbCr conversion.

    The codec works on three planes in BT.601 YCbCr with 4:2:0 chroma
    subsampling, like MPEG-1. Samples are ints; Y is in [0, 255],
    chroma is stored offset by +128 so it also occupies [0, 255]. *)

type t = { width : int; height : int; samples : int array }
(** Row-major plane. Samples may temporarily leave [0, 255] inside the
    codec (residuals); [clamp] restores range. *)

val create : width:int -> height:int -> t

val get : t -> x:int -> y:int -> int
(** Edge-clamped access: coordinates outside the plane read the nearest
    edge sample. Motion compensation does not read through it: its
    kernels index [samples], and {!Motion.predict} copies an off-plane
    footprint with the same clamping. *)

val set : t -> x:int -> y:int -> int -> unit
(** Raises [Invalid_argument] out of bounds. *)

val clamp : t -> unit
(** Clamps every sample to [0, 255]. *)

val copy : t -> t

val pad_to_multiple : t -> int -> t
(** [pad_to_multiple p m] extends the plane to dimensions that are
    multiples of [m] by edge replication; returns [p] itself if it is
    already aligned. *)

val equal : t -> t -> bool

type ycbcr = { y : t; cb : t; cr : t }
(** 4:2:0 frame: chroma planes have half resolution in each dimension
    (rounded up). *)

val create_ycbcr : width:int -> height:int -> multiple:int -> ycbcr
(** [create_ycbcr ~width ~height ~multiple] is a zeroed 4:2:0 frame
    for a [width]x[height] picture, each plane's dimensions rounded up
    to a multiple of [multiple]: the geometry of [pad_to_multiple]
    applied to {!of_raster}'s planes. *)

val has_ycbcr_geometry : ycbcr -> width:int -> height:int -> multiple:int -> bool
(** [has_ycbcr_geometry planes ~width ~height ~multiple] holds when
    [planes] have exactly the dimensions of
    [create_ycbcr ~width ~height ~multiple]. *)

val of_raster : Image.Raster.t -> ycbcr
(** BT.601 conversion with 2x2 chroma averaging. *)

val of_raster_into : Image.Raster.t -> ycbcr -> unit
(** [of_raster_into img planes] writes {!of_raster}[ img] into the
    top-left of [planes] and fills the rest of each plane by edge
    replication, so planes of the padded size receive exactly
    [pad_to_multiple (of_raster img)] with no intermediate planes. It
    allocates nothing. Raises [Invalid_argument] if a plane is smaller
    than [of_raster img]'s. *)

val to_raster : ycbcr -> Image.Raster.t
(** Inverse conversion with chroma upsampling (nearest-neighbour).
    Raises [Invalid_argument] unless each chroma plane is at least half
    the luma size, rounded up, as {!of_raster} makes them. *)

val to_raster_cropped : ycbcr -> width:int -> height:int -> Image.Raster.t
(** [to_raster_cropped planes ~width ~height] is the top-left
    [width]x[height] part of [to_raster planes], read straight from the
    (possibly padded) planes with no cropped copies. Raises
    [Invalid_argument] unless the planes cover it. *)

val squared_error_cropped : ycbcr -> ycbcr -> width:int -> height:int -> int
(** [squared_error_cropped a b ~width ~height] is the sum, over every
    channel byte, of the squared difference between
    [to_raster_cropped a ~width ~height] and
    [to_raster_cropped b ~width ~height], computed from the samples
    with the same conversion and no raster; it allocates nothing.
    [Image.Metrics.psnr_of_squared_error ~samples:(3 * width * height)]
    of it is [Image.Metrics.psnr] of the two pictures. Raises
    [Invalid_argument] unless both plane sets cover the picture. *)

val mean_absolute_difference : t -> t -> float
(** Over the common dimensions, which must match. *)
