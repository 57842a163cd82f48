(** Coefficient quantisation.

    JPEG-style base matrices (a flatter one for luma, a steeper one for
    chroma) scaled by a quantiser parameter [qp] in [1, 31], MPEG-1
    style: higher [qp] means coarser steps and a smaller stream. *)

type t
(** A quantiser: a pair of effective step matrices. *)

val make : qp:int -> t
(** One of 31 quantisers built at module initialisation and never
    written afterwards; [make] allocates nothing. Raises
    [Invalid_argument] for [qp] outside [1, 31]. *)

val qp : t -> int

type plane_kind = Luma | Chroma

val quantise : t -> plane_kind -> float array -> int array
(** [quantise q kind coeffs] divides 64 DCT coefficients by the step
    matrix and rounds to nearest. *)

val quantise_into : t -> plane_kind -> float array -> int array -> unit
(** [quantise_into q kind coeffs out] is {!quantise} written into
    [out] (64 elements); it allocates nothing. *)

val dequantise : t -> plane_kind -> int array -> float array -> int
(** [dequantise q kind levels out] multiplies back by the step matrix
    into [out] (64 elements). It returns the rows of [levels] that hold
    a non-zero level, bit [y] for row [y]; every other row of [out] is
    zero. *)
