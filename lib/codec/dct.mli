(** 8x8 type-II DCT and its inverse, the transform of MPEG/JPEG.

    Blocks are 64-element float arrays in row-major order. The pair is
    orthonormal: [idct (dct b) = b] up to floating-point rounding, so
    the quantiser is the codec's only source of loss. *)

val block_size : int
(** 8. *)

val forward : float array -> float array
(** [forward block] transforms a 64-sample spatial block into 64
    coefficients, DC first. Raises [Invalid_argument] unless the input
    has 64 elements. *)

val forward_into : float array -> tmp:float array -> float array -> unit
(** [forward_into block ~tmp out] is {!forward} written into [out],
    with [tmp] (64 elements) as the intermediate; it allocates nothing.
    [out] may be [block]. *)

val inverse : float array -> float array
(** [inverse coeffs] reconstructs the spatial block. *)

val inverse_into : rows:int -> float array -> tmp:float array -> float array -> unit
(** [inverse_into ~rows coeffs ~tmp out] is {!inverse} written into
    [out], with [tmp] (64 elements) as the intermediate. Bit [y] of
    [rows] is clear only if row [y] of [coeffs] is all zero; such rows
    are skipped, which changes no bit of the result. [out] may be
    [coeffs]. *)
