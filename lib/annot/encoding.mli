(** Binary wire format for annotation tracks.

    §4.3: "The annotations are RLE compressed, so the overhead is
    minimal, in the order of hundreds of bytes for our video clips
    which are on the order of a few megabytes."

    Layout (varints are LEB128; u24/u32 little-endian):

    {v
    magic   "ANPW"            4 bytes
    version u8                2; any other version is rejected
    quality varint            allowed loss in permille, at most 1000
    fps     varint            fps * 1000
    frames  varint            total frame count
    names   2 x (len varint, bytes)   clip name, device name
    count   varint            entry count (after run merging)
    hcrc    u32               CRC32 over every byte above
    records count x 15 bytes:
            first_frame u24, frame_count u24, register u8,
            compensation u24 (gain * 4096), effective u8,
            crc u32 (CRC32 over the record's first 11 bytes)
    v}

    Records are fixed-size and self-describing (they carry their own
    [first_frame]), so a client that loses or corrupts part of the
    payload can still place every surviving record — see
    {!decode_partial}.

    The byte layer (CRC32, varints, u24/u32, strings) is
    {!Wire.Binary}; this module owns the layout. {!read_header} and
    {!read_record} are its one walk: {!decode}, {!decode_partial} and
    the offline verifier ({!Check.Artifact.check_annotation}) all read
    through them and differ only in what they make of a problem. *)

val encode : Track.t -> string
(** [encode track] serialises after {!Track.merge_runs}. Raises [Invalid_argument] naming the field when a
    value does not fit its fixed-width slot — [first_frame] /
    [frame_count] past 2^24 - 1 frames (a ~16.7M-frame clip) or a
    compensation gain overflowing the 12.12 fixed point — rather than
    wrapping into bytes that would still CRC as valid. *)

val decode : string -> (Track.t, string) result
(** [decode bytes] parses and re-validates; any corruption (including
    any CRC mismatch, any version other than {!version} and a quality
    above 1000 permille) yields [Error] with a human-readable reason,
    never an exception. *)

type record =
  | Intact of Track.entry
  | Lost  (** the record overlaps bytes that never arrived *)
  | Corrupt  (** its bytes arrived but failed the CRC or sanity checks *)

type partial = {
  clip_name : string;
  device_name : string;
  quality : Quality_level.t;
  fps : float;
  total_frames : int;
  records : record array;  (** one slot per encoded record, in order *)
  corrupt_records : int;  (** the [Corrupt] slots *)
  missing_records : int;  (** the [Lost] slots *)
}

val decode_partial : ?byte_ok:bool array -> string -> (partial, string) result
(** [decode_partial ?byte_ok bytes] salvages what it can from a
    damaged payload. [byte_ok.(i) = false] marks byte [i] as lost
    in transit (e.g. an unrecovered FEC group zero-filled by
    {!Streaming.Fec}); defaults to all-true. The header must survive
    intact (else [Error]); each record is then classified
    independently: missing when it overlaps lost bytes, corrupt when
    its CRC or sanity checks fail (bad frame span, overlap with an
    earlier record, compensation below 1), intact otherwise. Raises
    [Invalid_argument] when [byte_ok] does not match [bytes] in
    length. *)

val encoded_size : Track.t -> int
(** [encoded_size track] is [String.length (encode track)] — the
    overhead the bench reports against the encoded video size. *)

val record_size : int
(** Size in bytes of one fixed record (currently 15). *)

val version : int

(** {1 The walk}

    The readers hand back raw fields and CRC verdicts, not errors, so
    the strict decoder, the salvage decoder and the verifier judge the
    same reading. *)

type field = Quality_permille | Fps_milli | Total_frames

type header = {
  quality_permille : int;
  fps_milli : int;
  total_frames : int;
  clip_name : string;
  device_name : string;
  count : int;  (** declared record count *)
  crc_ok : bool;
  fits : bool;  (** the bytes after the header are exactly [count] records *)
}

type header_error =
  | Bad_magic  (** shorter than the magic, or not ["ANPW"] *)
  | Bad_version of int
  | Malformed of Wire.Binary.error

val read_header :
  ?on_field:(field -> int -> unit) ->
  ?max_name:int ->
  Wire.Binary.cursor ->
  (header, header_error) result
(** Reads the header from the start of the cursor's string and leaves
    the cursor at the first record. [on_field] sees each numeric field
    as it is read, so a caller still judges the fields before a cut. A
    name longer than [max_name] (default unbounded) is [Malformed]. *)

val read_record : Wire.Binary.cursor -> Track.entry option
(** Reads one record and advances past it; [None] when its CRC fails.
    Range and order checks are the caller's. [header.fits] guarantees
    the bytes. *)
