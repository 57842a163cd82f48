(** Exp-Golomb entropy codes (order 0), as used by H.26x syntax.

    [ue] codes non-negative integers; [se] maps signed integers through
    the standard zig-zag ([0, 1, -1, 2, -2, ...]) before [ue]. Small
    magnitudes — the common case for quantised DCT coefficients and
    motion vector deltas — cost few bits. *)

val write_ue : Bitio.Writer.t -> int -> unit
(** Raises [Invalid_argument] on negative input. *)

val read_ue : Bitio.Reader.t -> int
(** Raises [Bitio.Reader.Out_of_bits] on a truncated code and
    [Invalid_argument] on a prefix of more than 61 zeros, which
    {!write_ue} never emits. *)

val write_se : Bitio.Writer.t -> int -> unit

val read_se : Bitio.Reader.t -> int

val ue_bit_length : int -> int
(** [ue_bit_length n] is the number of bits [write_ue] emits for [n] —
    used by the encoder's rate estimation. *)
