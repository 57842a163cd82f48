(** Bit-level I/O for the codec bitstream.

    Bits are written most-significant first within each byte; the final
    partial byte is zero-padded. *)

module Writer : sig
  type t

  val create : unit -> t

  val put_bit : t -> bool -> unit

  val put_bits : t -> value:int -> bits:int -> unit
  (** [put_bits w ~value ~bits] writes the low [bits] bits of [value],
      most significant first. [bits] must be in [0, 62] and [value]
      non-negative and representable in [bits] bits. *)

  val put_byte_aligned : t -> int -> unit
  (** [put_byte_aligned w b] pads to a byte boundary then writes byte
      [b]. *)

  val align : t -> unit
  (** Zero-pads to the next byte boundary. *)

  val bit_length : t -> int
  (** Number of bits written so far. *)

  val contents : t -> string
  (** Final byte string (implicitly aligns). *)
end

module Reader : sig
  type t

  exception Out_of_bits
  (** Raised when reading past the end of the stream. *)

  val of_string : string -> t

  val get_bit : t -> bool

  val get_bits : t -> int -> int
  (** [get_bits r n] reads [n] bits (0-62) as a non-negative integer,
      most significant first. Raises [Out_of_bits] when fewer than [n]
      bits remain; the position is then unspecified. *)

  val count_zeros : t -> int
  (** [count_zeros r] reads zero bits up to and including the next one
      bit and returns how many zeros it read: the prefix of an
      Exp-Golomb code. Raises [Out_of_bits] when the stream ends
      first. *)

  val align : t -> unit
  (** Skips to the next byte boundary. *)

  val get_byte_aligned : t -> int

  val bits_remaining : t -> int

  val position_bits : t -> int
end
