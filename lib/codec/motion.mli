(** Block motion estimation and compensation.

    Full-search over a square window on 8x8 luma blocks with
    sum-of-absolute-differences matching; ties prefer the shorter
    vector so static content codes as (0, 0). Chroma reuses the luma
    vector halved (4:2:0 geometry).

    {b Interior and edge paths.} Every kernel reads and writes plane
    samples directly, row by row, when the block's whole footprint lies
    inside the plane — for half-pel vectors that footprint includes
    the +1 interpolation taps. A block whose footprint touches or
    crosses an edge takes the edge-clamped path through {!Plane.get}
    instead. The position alone picks the path; both evaluate the same
    expression per sample, so results are identical either way.

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
  ?range:int -> current:Plane.t -> reference:Plane.t -> x:int -> y:int ->
  unit -> vector * int
(** [search ?range ~current ~reference ~x ~y ()] is the best vector
    within [[-range, range]] on both axes (default 7) and its SAD. *)

val extract_block : Plane.t -> x:int -> y:int -> float array
(** 8x8 block as floats (edge-clamped reads). *)

val extract_block_into : Plane.t -> x:int -> y:int -> float array -> unit
(** {!extract_block} into the caller's 64-element array. *)

val extract_predicted : Plane.t -> x:int -> y:int -> vector -> float array
(** Reference block displaced by a vector, as floats. *)

val extract_predicted_into : Plane.t -> x:int -> y:int -> vector -> float array -> unit
(** {!extract_predicted} into the caller's 64-element array. *)

val store_block : Plane.t -> x:int -> y:int -> float array -> unit
(** Rounds, then writes the 8x8 block; samples falling outside the
    plane are dropped (blocks may overhang padded edges). *)

val halve : vector -> vector
(** Chroma vector: arithmetic halving towards zero. *)

(** {1 Half-pel precision}

    Half-pel vectors measure displacement in half-sample units;
    fractional positions are bilinearly interpolated from the four
    surrounding integer samples (MPEG-1 style, with round-to-nearest
    averaging). *)

val to_halfpel : vector -> vector
(** [to_halfpel v] converts an integer-pel vector to half-pel units
    (doubles both components). *)

val extract_predicted_halfpel : Plane.t -> x:int -> y:int -> vector -> float array
(** Reference block displaced by a *half-pel* vector, bilinearly
    interpolated, as floats. *)

val extract_predicted_halfpel_into :
  Plane.t -> x:int -> y:int -> vector -> float array -> unit
(** {!extract_predicted_halfpel} into the caller's 64-element array. *)

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
