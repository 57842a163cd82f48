(** Block motion estimation and compensation.

    Full-search over a square window on 8x8 luma blocks with
    sum-of-absolute-differences matching; ties prefer the shorter
    vector so static content codes as (0, 0). Chroma reuses the luma
    vector, in whole chroma samples ({!chroma_vector}).

    {b One predictor.} Every inter prediction (the decoder's luma and
    chroma, the encoder's chroma) is {!predict}. A block whose
    footprint, the +1 taps of a half-pel vector included, lies inside
    the reference is read from [Plane.samples] in place; any other
    footprint is first copied into a {!window} with every coordinate
    clamped to the nearest edge. Clamping a coordinate gives the sample
    that a copy with replicated edges holds, so both branches give the
    edge-clamped prediction, and both run the same bilinear kernel the
    encoder's luma candidates run on the search window.

    {b The search window.} The searches read no plane. {!fill} copies
    the current block and a square window of the reference around it,
    [8 + 2 (range + 1)] samples on a side, into a {!window}, clamping
    each coordinate once, at fill time. The window covers every sample
    a candidate within [range] reads, the +1 taps of a half-pel vector
    included, so the kernels read the window at fixed strides with no
    edge branch and sum exactly what a per-sample clamped read sums.
    The plane-level {!sad}, {!search}, {!sad_halfpel} and
    {!refine_halfpel} fill a window sized to their one call and run the
    same kernels.

    {b Block extraction and store} index [Plane.samples] directly and
    raise [Invalid_argument] on a block that overhangs its plane: the
    codec places only 8-aligned blocks, in planes padded to multiples
    of 8.

    {b Partial SAD.} {!search} and {!refine_halfpel} pass the running
    best SAD as a bound and stop summing a candidate after the first
    row whose partial sum is {e strictly} greater. Such a candidate
    could neither beat nor tie the best, so the raster scan order and
    the [(sad, norm)] tie-break choose exactly the vector a full
    search would. *)

type vector = { dx : int; dy : int }

val zero : vector

val sad :
  Plane.t -> Plane.t -> x:int -> y:int -> vector -> int
(** [sad current reference ~x ~y v] is the SAD between the 8x8 block of
    [current] at [(x, y)] and the reference block displaced by [v]
    (edge-clamped). *)

val search :
  range:int -> current:Plane.t -> reference:Plane.t -> x:int -> y:int ->
  unit -> vector * int
(** [search ~range ~current ~reference ~x ~y ()] is the best vector
    within [[-range, range]] on both axes and its SAD. *)

val extract_block : Plane.t -> x:int -> y:int -> float array
(** 8x8 block as floats. Raises [Invalid_argument] if the block
    overhangs the plane. *)

val extract_block_into : Plane.t -> x:int -> y:int -> float array -> unit
(** {!extract_block} into the caller's 64-element array. *)

val store_block : Plane.t -> x:int -> y:int -> float array -> unit
(** Rounds, then writes the 8x8 block. Raises [Invalid_argument] if the
    block overhangs the plane. *)

(** {1 Half-pel precision}

    Half-pel vectors measure displacement in half-sample units;
    fractional positions are bilinearly interpolated from the four
    surrounding integer samples (MPEG-1 style, with round-to-nearest
    averaging). *)

val to_halfpel : vector -> vector
(** [to_halfpel v] converts an integer-pel vector to half-pel units
    (doubles both components). *)

val sad_halfpel : Plane.t -> Plane.t -> x:int -> y:int -> vector -> int
(** SAD against the interpolated prediction for a half-pel vector. *)

val refine_halfpel :
  current:Plane.t -> reference:Plane.t -> x:int -> y:int -> vector -> vector * int
(** [refine_halfpel ~current ~reference ~x ~y best_integer] searches
    the eight half-pel positions around an integer-pel winner and
    returns the best *half-pel* vector (possibly the doubled integer
    one) with its SAD. *)

val chroma_vector : vector -> vector
(** [chroma_vector v] maps a luma half-pel vector to the co-located
    chroma displacement in integer chroma samples (divide by four,
    flooring) — 4:2:0 geometry with integer-pel chroma prediction. *)

(** {1 Searching a window}

    The encoder keeps one {!window} per clip and fills it once per
    searched block; the zero-vector check, the integer search, the
    half-pel refinement and the searched vector's prediction then read
    only the window. Vectors are relative to the fill's [centre]. *)

type window
(** The current 8x8 block and the reference samples around it. *)

val window : range:int -> window
(** [window ~range] allocates a window for searches within [range]:
    64 block samples and [(8 + 2 (range + 1))^2] reference samples.
    Raises [Invalid_argument] if [range] is negative. *)

val fill :
  window -> current:Plane.t -> reference:Plane.t -> x:int -> y:int ->
  centre:vector -> unit
(** [fill w ~current ~reference ~x ~y ~centre] copies the 8x8 block of
    [current] at [(x, y)] and the reference around the block at
    [(x + centre.dx, y + centre.dy)], edge-clamped. *)

val window_sad : window -> vector -> int
(** SAD of the block against the window under an integer vector within
    the window's range. *)

val window_search : window -> zero_sad:int -> vector * int
(** {!search} over the window's range, given the zero vector's SAD
    ([window_sad w zero]), which it does not sum again. *)

val window_refine : window -> vector -> vector * int
(** {!refine_halfpel} around an integer vector within the window's
    range. *)

val window_predicted_halfpel_into : window -> vector -> float array -> unit
(** {!predict} from the window's reference, for a half-pel vector
    within [2 range + 1] on both axes.

    The [window_*] kernels raise [Invalid_argument] on a vector out of
    their reach. {!window_search} and {!window_refine} add the 8-sample
    rows they sum to [codec_sad_rows_total], once per call. *)

(** {1 Predicting from a plane} *)

val predict :
  window -> reference:Plane.t -> x:int -> y:int -> hx:int -> hy:int ->
  float array -> unit
(** [predict w ~reference ~x ~y ~hx ~hy out] writes into [out] the 8x8
    block of [reference] at [(x, y)] displaced by the half-pel vector
    [(hx, hy)], bilinearly interpolated and edge-clamped, as floats.
    It reads the plane in place when the footprint is inside it and
    otherwise overwrites [w]'s reference samples with the footprint, so
    any window will do, and it allocates nothing. Any vector is valid,
    however far outside the plane. *)
