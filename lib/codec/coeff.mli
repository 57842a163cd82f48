(** Entropy coding of quantised coefficient blocks.

    A block is coded as the count of non-zero coefficients in zig-zag
    order, followed by (zero-run, level) pairs — runs as unsigned and
    levels as signed Exp-Golomb. All-zero blocks cost a single [ue 0]
    symbol, which keeps skipped regions in P-frames nearly free. *)

val write_block : Bitio.Writer.t -> int array -> unit
(** [write_block w levels] encodes 64 row-major quantised levels. *)

val read_block : Bitio.Reader.t -> int array -> unit
(** [read_block r levels] decodes 64 row-major levels into the caller's
    array, overwriting all of it. Raises [Bitio.Reader.Out_of_bits] or
    [Invalid_argument] on corrupt data. *)

val bit_cost : int array -> int
(** Exact number of bits [write_block] would emit — used by the
    encoder's mode decision. *)
