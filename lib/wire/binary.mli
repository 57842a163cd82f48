(** The byte layer of the two CRC-framed artifact formats — annotation
    streams ({!Annotation.Encoding}) and decision journals
    ({!Obs.Journal}): CRC32, LEB128 varints, little-endian u24/u32 and
    varint-length-prefixed strings, written into a [Buffer.t] and read
    back through a bounds-checked cursor. Every read failure is one
    typed {!Error} naming the field and its byte offset, so a decoder
    (which stops with {!message}) and the offline verifier (which maps
    the failure to a diagnostic code) classify the same bytes alike. *)

val crc32 : string -> int
(** CRC32 (IEEE 802.3, reflected) — [crc32 "123456789" = 0xCBF43926]. *)

val crc32_sub : string -> pos:int -> len:int -> int
(** CRC32 of [len] bytes from [pos], without copying. *)

val put_varint : Buffer.t -> int -> unit
(** LEB128, low seven-bit group first. Raises [Invalid_argument] on a
    negative value. *)

val put_string : Buffer.t -> string -> unit
(** Varint length, then the bytes. *)

val put_u24 : Buffer.t -> int -> unit
(** The low 24 bits, little-endian; range checks are the caller's. *)

val put_u32 : Buffer.t -> int -> unit

type failure =
  | Truncated of int  (** the read needed this many bytes; fewer were left *)
  | Varint_too_long  (** a varint still continued after nine bytes *)
  | Varint_overflow  (** a varint's value does not fit a native int *)
  | Too_long of { len : int; cap : int }
      (** a declared length past the reader's cap *)

type error = {
  what : string;  (** the field, as the caller named it *)
  at : int;  (** byte offset of the failure *)
  failure : failure;
}

exception Error of error

val message : error -> string
(** The decoders' short form: ["truncated input"], ["varint too
    long"], ["varint overflow"] or ["implausible <what> length"]. *)

type cursor = {
  data : string;
  mutable pos : int;
  limit : int;  (** reads may not pass this offset *)
}

val cursor : ?pos:int -> ?limit:int -> string -> cursor
(** Defaults: from offset 0 to the end of the string. *)

val need : cursor -> int -> string -> unit
(** [need c n what] raises [Truncated n] unless [n] bytes remain. *)

val fail : cursor -> string -> failure -> 'a
(** Raises {!Error} at the cursor — for a caller's own bounds. *)

(** Each reader takes the field's name for {!error.what}, checks the
    bounds and advances the cursor. *)

val get_u8 : cursor -> string -> int
val get_u24 : cursor -> string -> int
val get_u32 : cursor -> string -> int
val get_varint : cursor -> string -> int

val get_string : ?max:int -> cursor -> string -> string
(** A length above [max] (default unbounded) raises [Too_long] before
    any byte of the string is read. *)
