(** User-selected quality levels.

    §4.2: "The user specifies the quality level when he requests the
    video clip from the server"; §4.3 fixes the experimental grid to
    0, 5, 10, 15 and 20 % of high-luminance pixels allowed to clip, and
    §4.3 notes the server "provides a number of different video
    qualities as exemplified above (5 in our case), same for all types
    of PDA clients". *)

type t =
  | Lossless  (** 0 % clipped: no degradation at all *)
  | Loss_5
  | Loss_10
  | Loss_15
  | Loss_20
  | Custom of float  (** an arbitrary allowed clipped fraction in [0, 1] *)

val allowed_loss : t -> float
(** The clipped-pixel budget as a fraction in [0, 1]. Raises
    [Invalid_argument] for a [Custom] value outside the range, which
    only a direct [Custom] construction can make: {!of_percent} and
    {!of_permille} reject it. *)

val standard_grid : t list
(** The paper's five levels, in ascending-loss order. *)

val of_percent : float -> (t, string) result
(** [of_percent 10.] is [Ok Loss_10]; other values in [0, 100] become
    [Custom]; a value outside [0, 100], or NaN, is [Error]. *)

val of_permille : int -> (t, string) result
(** The same for an allowed loss in permille, as the annotation stream
    carries it ({!Encoding}): [of_permille 100] is [Ok Loss_10]; other
    values in [0, 1000] become [Custom]; any other is [Error]. *)

val label : t -> string
(** Short label as used in figure legends, e.g. ["10%"]. *)

val compare : t -> t -> int
(** Orders by allowed loss. *)

val pp : Format.formatter -> t -> unit
